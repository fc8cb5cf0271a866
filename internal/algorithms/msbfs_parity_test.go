package algorithms

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// localMSBFS is MSBFSDist on one node: the same boolean-semiring frontier
// products, each a sequential SpGEMMLocal on the gathered operands.
func localMSBFS(a *sparse.CSR[int64], sources []int) ([][]int64, int) {
	n := a.NRows
	levels := make([][]int64, len(sources))
	f := sparse.NewCSR[int64](len(sources), n)
	for k, s := range sources {
		levels[k] = make([]int64, n)
		for v := range levels[k] {
			levels[k][v] = -1
		}
		levels[k][s] = 0
		f.ColIdx = append(f.ColIdx, s)
		f.Val = append(f.Val, 1)
		f.RowPtr[k+1] = len(f.ColIdx)
	}
	pattern := structural[int64](a)
	sr := semiring.LOrLAnd[int64]()
	rounds := 0
	for f.NNZ() > 0 {
		rounds++
		var prod sparse.CSR[int64]
		core.SpGEMMLocal(nil, f, pattern, sr, &prod)
		next := sparse.NewCSR[int64](len(sources), n)
		for k := 0; k < prod.NRows; k++ {
			cols, _ := prod.Row(k)
			for _, v := range cols {
				if levels[k][v] < 0 {
					levels[k][v] = int64(rounds)
					next.ColIdx = append(next.ColIdx, v)
					next.Val = append(next.Val, 1)
				}
			}
			next.RowPtr[k+1] = len(next.ColIdx)
		}
		f = next
	}
	return levels, rounds
}

// msbfsModeledFingerprint is the FNV-64a of the modeled-time deltas
// TestMSBFSDistZeroCopyParity records, in order, as produced by the copying
// (SubMatrix-per-stage, fresh-block-per-round) implementation on amd64 (see
// summaModeledFingerprint in internal/core for why amd64 alone).
const msbfsModeledFingerprint = 0xb973d66d8f5ee4e5

// TestMSBFSDistZeroCopyParity runs the batched BFS over the grids the
// zero-copy SUMMA must handle — square, rectangular, prime 1×p and
// oversubscribed one-node — and checks levels and round counts against the
// sequential SpGEMMLocal formulation, the modeled clock against the copying
// implementation's, and the adjacency blocks against their pre-run hash.
func TestMSBFSDistZeroCopyParity(t *testing.T) {
	a0 := symGraph(150, 3, 411)
	rmat, err := sparse.RMAT[int64](7, 4, 412)
	if err != nil {
		t.Fatal(err)
	}
	fp := fnv.New64a()
	var cases []string
	for _, in := range []struct {
		name    string
		a       *sparse.CSR[int64]
		sources []int
	}{
		{"er", a0, []int{0, 31, 77, 149, 31}},
		{"rmat", rmat, []int{1, 2, 3, 64, 100, 127, 5, 9}},
	} {
		want, wantRounds := localMSBFS(in.a, in.sources)
		for _, gr := range []struct {
			label   string
			p       int
			oneNode bool
		}{
			{"2x2", 4, false}, {"4x4", 16, false}, {"2x3", 6, false},
			{"1x3", 3, false}, {"1x7", 7, false}, {"2x4 one-node", 8, true},
			{"1x13", 13, false}, {"1x13 one-node", 13, true},
		} {
			var rt *locale.Runtime
			if gr.oneNode {
				g, err := locale.NewGridOnOneNode(gr.p)
				if err != nil {
					t.Fatal(err)
				}
				rt = locale.NewWithGrid(machine.Edison(), g, 24)
			} else {
				rt = newRT(t, gr.p)
			}
			a := dist.MatFromCSR(rt, in.a)
			h0 := hashBlocks(a)
			t0 := rt.S.Elapsed()
			levels, rounds, err := MSBFSDist(rt, a, in.sources)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, gr.label, err)
			}
			dt := rt.S.Elapsed() - t0
			fmt.Fprint(fp, math.Float64bits(dt))
			cases = append(cases, fmt.Sprintf("%s %s: %v ns", in.name, gr.label, dt))
			if rounds != wantRounds {
				t.Errorf("%s %s: %d rounds, want %d", in.name, gr.label, rounds, wantRounds)
			}
			for k := range want {
				for v := range want[k] {
					if levels[k][v] != want[k][v] {
						t.Fatalf("%s %s: source %d level[%d] = %d, want %d",
							in.name, gr.label, in.sources[k], v, levels[k][v], want[k][v])
					}
				}
			}
			if hashBlocks(a) != h0 {
				t.Errorf("%s %s: MSBFSDist changed its adjacency blocks", in.name, gr.label)
			}
		}
	}
	if got := fp.Sum64(); runtime.GOARCH == "amd64" && got != msbfsModeledFingerprint {
		t.Errorf("modeled-time fingerprint %#x, want %#x; modeled per case:\n%s",
			got, uint64(msbfsModeledFingerprint), strings.Join(cases, "\n"))
	}
}

// hashBlocks fingerprints every block of m.
func hashBlocks[T semiring.Number](m *dist.Mat[T]) uint64 {
	h := fnv.New64a()
	for _, blk := range m.Blocks {
		fmt.Fprint(h, blk.NRows, blk.NCols, blk.RowPtr, blk.ColIdx, blk.Val)
	}
	return h.Sum64()
}

// BenchmarkMSBFSDist measures an 8-source batched BFS (the gbserve batcher's
// run) on an R-MAT scale-12 graph over a 2×2 and a 1×3 grid. Not gated.
func BenchmarkMSBFSDist(b *testing.B) {
	a0, err := sparse.RMAT[int64](12, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	sources := []int{0, 1, 2, 3, 64, 512, 1024, 4095}
	for _, p := range []int{4, 3} {
		rt, err := locale.New(machine.Edison(), p, 4)
		if err != nil {
			b.Fatal(err)
		}
		a := dist.MatFromCSR(rt, a0)
		b.Run(fmt.Sprintf("%dx%d", rt.G.Pr, rt.G.Pc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MSBFSDist(rt, a, sources); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
