package algorithms

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

func TestSSSPDistMatchesLocal(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](161, 5, 61)
	want := RefSSSP(a0, 4)
	for _, p := range []int{1, 2, 4, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		got, rounds, err := SSSPDist(rt, a, 4)
		if err != nil {
			t.Fatal(err)
		}
		if rounds < 1 {
			t.Error("no rounds")
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("p=%d: dist[%d] = %d, want %d", p, v, got[v], want[v])
			}
		}
	}
}

func TestSSSPDistErrors(t *testing.T) {
	rt := newRT(t, 4)
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](20, 3, 1))
	if _, _, err := SSSPDist(rt, a, -1); err == nil {
		t.Error("negative source accepted")
	}
	if _, _, err := SSSPDist(rt, a, 20); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestPageRankDistMatchesLocal(t *testing.T) {
	a0 := sparse.ErdosRenyi[float64](120, 4, 62)
	want, _, err := PageRank(a0, 0.85, 1e-10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, 6} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		got, iters, err := PageRankDist(rt, a, 0.85, 1e-10, 100)
		if err != nil {
			t.Fatal(err)
		}
		if iters < 1 {
			t.Error("no iterations")
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("p=%d: rank[%d] = %v, want %v", p, v, got[v], want[v])
			}
		}
	}
}

func TestCCDistMatchesLocal(t *testing.T) {
	// Undirected graph with several components.
	coo := sparse.NewCOO[int64](30, 30)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {10, 11}, {11, 12}, {20, 21}, {25, 26}, {26, 27}, {27, 25}}
	for _, e := range edges {
		coo.Append(e[0], e[1], 1)
		coo.Append(e[1], e[0], 1)
	}
	a0, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	wantLabels, wantCount, err := ConnectedComponents(a0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		labels, count, err := CCDist(rt, a)
		if err != nil {
			t.Fatal(err)
		}
		if count != wantCount {
			t.Fatalf("p=%d: components = %d, want %d", p, count, wantCount)
		}
		for v := range labels {
			if labels[v] != wantLabels[v] {
				t.Fatalf("p=%d: labels[%d] = %d, want %d", p, v, labels[v], wantLabels[v])
			}
		}
	}
}

func TestDistAlgorithmsChargeCommunication(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](100, 4, 63)
	rt := newRT(t, 9)
	a := dist.MatFromCSR(rt, a0)
	if _, _, err := SSSPDist(rt, a, 0); err != nil {
		t.Fatal(err)
	}
	if rt.S.Elapsed() <= 0 {
		t.Error("distributed SSSP charged no time")
	}
}

func TestBFSDistMaskedMatchesBFSDist(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](400, 6, 81)
	want := RefBFS(a0, 5)
	for _, p := range []int{1, 4, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		res, err := BFSDistMasked(rt, a, 5)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if res.Level[v] != want[v] {
				t.Fatalf("p=%d: level[%d] = %d, want %d", p, v, res.Level[v], want[v])
			}
		}
		// Parent consistency.
		for v := range want {
			pv := res.Parent[v]
			if v == 5 || res.Level[v] < 0 {
				continue
			}
			if res.Level[int(pv)] != res.Level[v]-1 {
				t.Fatalf("p=%d: parent level wrong for %d", p, v)
			}
		}
	}
}

func TestBFSDistMaskedSendsFewerMessages(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](3000, 10, 82)
	rtPlain := newRT(t, 9)
	aP := dist.MatFromCSR(rtPlain, a0)
	if _, err := BFSDist(rtPlain, aP, 0); err != nil {
		t.Fatal(err)
	}
	rtMasked := newRT(t, 9)
	aM := dist.MatFromCSR(rtMasked, a0)
	if _, err := BFSDistMasked(rtMasked, aM, 0); err != nil {
		t.Fatal(err)
	}
	if rtMasked.S.Traffic().FineOps >= rtPlain.S.Traffic().FineOps {
		t.Errorf("fused-mask BFS sent %d fine-grained ops vs %d unmasked — expected fewer",
			rtMasked.S.Traffic().FineOps, rtPlain.S.Traffic().FineOps)
	}
}

func TestBFSDistMaskedErrors(t *testing.T) {
	rt := newRT(t, 4)
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](20, 3, 1))
	if _, err := BFSDistMasked(rt, a, -1); err == nil {
		t.Error("bad source accepted")
	}
}

// TestStructuralOperandRoundTripParity pins the block-local structural
// operand of PageRankDist and CCDist to the global round trip it replaces:
// on every grid shape, eager and fused, a replicated input and a streaming
// snapshot must give bit-identical ranks, labels and modeled time to the
// same calls on dist.MatFromCSR(rt, m.ToCSR()).
func TestStructuralOperandRoundTripParity(t *testing.T) {
	a0, err := sparse.RMAT[float64](8, 6, 31)
	if err != nil {
		t.Fatal(err)
	}
	grids := []struct {
		name    string
		p       int
		oversub bool
	}{{"square", 4, false}, {"prime", 7, false}, {"oversub", 6, true}, {"p13", 13, false}}
	inputs := []struct {
		name string
		make func(rt *locale.Runtime) *dist.Mat[float64]
	}{
		{"plain", func(rt *locale.Runtime) *dist.Mat[float64] { return dist.MatFromCSR(rt, a0) }},
		{"replicated", func(rt *locale.Runtime) *dist.Mat[float64] {
			m := dist.MatFromCSR(rt, a0)
			dist.ReplicateMat(rt, m)
			return m
		}},
		{"snapshot", func(rt *locale.Runtime) *dist.Mat[float64] {
			em := dist.NewEpochMat(dist.MatFromCSR(rt, a0))
			n := a0.NRows
			rows, cols, vals := []int{0, 3, n - 1, 17}, []int{n - 1, 200, 0, 17}, []float64{2, 3, 4, 5}
			if err := em.UpdateBatch(rows, cols, vals); err != nil {
				t.Fatal(err)
			}
			c, _ := a0.Row(1)
			for _, j := range c {
				if err := em.Delete(1, j); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := em.Flush(rt); err != nil {
				t.Fatal(err)
			}
			m, _ := em.Snapshot()
			return m
		}},
	}
	for _, gr := range grids {
		for _, fusion := range []bool{false, true} {
			build := func() *locale.Runtime {
				eager, fused := fusedRT(t, gr.p, gr.oversub)
				if fusion {
					return fused
				}
				return eager
			}
			for _, in := range inputs {
				m := in.make(build())
				csr, err := m.ToCSR()
				if err != nil {
					t.Fatal(err)
				}
				rb := build()
				trip := dist.MatFromCSR(rb, csr)
				if m.Replicated() {
					dist.ReplicateMat(rb, trip)
				}
				name := fmt.Sprintf("%s/fusion=%v/%s", gr.name, fusion, in.name)

				// The operand holds exactly the blocks the round trip cut.
				op := distStructural[float64](build(), m)
				cut := dist.MatFromCSR(rb, structural[float64](csr))
				if !slices.Equal(op.RowBands, cut.RowBands) || !slices.Equal(op.ColBands, cut.ColBands) ||
					op.Replicated() != m.Replicated() {
					t.Fatalf("%s: operand bands %v %v (replicated %v), round trip %v %v",
						name, op.RowBands, op.ColBands, op.Replicated(), cut.RowBands, cut.ColBands)
				}
				for l := range cut.Blocks {
					if !op.Blocks[l].Equal(cut.Blocks[l]) {
						t.Fatalf("%s: operand block %d differs from the round trip's", name, l)
					}
				}

				rtL, rtT := build(), build()
				rankL, itL, err := PageRankDist(rtL, m, 0.85, 1e-9, 50)
				if err != nil {
					t.Fatal(err)
				}
				rankT, itT, err := PageRankDist(rtT, trip, 0.85, 1e-9, 50)
				if err != nil {
					t.Fatal(err)
				}
				if itL != itT || rtL.S.Elapsed() != rtT.S.Elapsed() {
					t.Errorf("%s: PageRank iters %d / modeled %v, round trip %d / %v",
						name, itL, rtL.S.Elapsed(), itT, rtT.S.Elapsed())
				}
				for v := range rankT {
					if math.Float64bits(rankL[v]) != math.Float64bits(rankT[v]) {
						t.Fatalf("%s: rank[%d] = %v, round trip %v", name, v, rankL[v], rankT[v])
					}
				}

				rtL, rtT = build(), build()
				labL, compL, err := CCDist(rtL, m)
				if err != nil {
					t.Fatal(err)
				}
				labT, compT, err := CCDist(rtT, trip)
				if err != nil {
					t.Fatal(err)
				}
				if compL != compT || rtL.S.Elapsed() != rtT.S.Elapsed() {
					t.Errorf("%s: CC components %d / modeled %v, round trip %d / %v",
						name, compL, rtL.S.Elapsed(), compT, rtT.S.Elapsed())
				}
				for v := range labT {
					if labL[v] != labT[v] {
						t.Fatalf("%s: label[%d] = %d, round trip %d", name, v, labL[v], labT[v])
					}
				}
			}
		}
	}
}

// The set-up benchmarks keep the per-call operand cost of the distributed
// PageRank and CC visible in wall-clock time and allocations.
func benchDistAlg(b *testing.B, run func(rt *locale.Runtime, m *dist.Mat[float64]) error) {
	a0, err := sparse.RMAT[float64](12, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := locale.New(machine.Edison(), 16, 4)
	if err != nil {
		b.Fatal(err)
	}
	m := dist.MatFromCSR(rt, a0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(rt, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankDist(b *testing.B) {
	benchDistAlg(b, func(rt *locale.Runtime, m *dist.Mat[float64]) error {
		_, _, err := PageRankDist(rt, m, 0.85, 1e-6, 100)
		return err
	})
}

func BenchmarkCCDist(b *testing.B) {
	benchDistAlg(b, func(rt *locale.Runtime, m *dist.Mat[float64]) error {
		_, _, err := CCDist(rt, m)
		return err
	})
}
