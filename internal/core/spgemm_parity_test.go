package core

// Zero-copy SUMMA parity: the stage loop hands its kernels the operands'
// own blocks (square grids), row-range views (B panels) or reused column
// extractions (A panels) instead of fresh SubMatrix copies. These tests pin
// that the switch changed wall-clock time only: every product block equals
// the sequential kernel's product on the gathered operands, the modeled
// clock matches the copying implementation's to the bit, and no operand
// block is written.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// summaGrid is one grid shape of the parity suite.
type summaGrid struct {
	label   string
	p       int
	oneNode bool
}

// summaParityGrids covers square grids (panels are blocks), rectangular and
// prime 1×p grids (views and extractions), and oversubscribed one-node
// grids.
var summaParityGrids = []summaGrid{
	{"2x2", 4, false},
	{"4x4", 16, false},
	{"2x3", 6, false},
	{"3x4", 12, false},
	{"1x3", 3, false},
	{"1x7", 7, false},
	{"2x4 one-node", 8, true},
	{"1x13", 13, false},
	{"1x13 one-node", 13, true},
}

func summaGridRT(t *testing.T, gr summaGrid) *locale.Runtime {
	t.Helper()
	if !gr.oneNode {
		return newRT(t, gr.p, 4)
	}
	g, err := locale.NewGridOnOneNode(gr.p)
	if err != nil {
		t.Fatal(err)
	}
	return locale.NewWithGrid(machine.Edison(), g, 4)
}

// summaParityInputs returns (A, B, mask) triples: square skewed, a
// rectangular chain whose bands never line up, and a hypersparse A that
// sends every stage through the heap kernel's DCSC walk.
func summaParityInputs(t *testing.T) []struct {
	name       string
	a, b, mask *sparse.CSR[int64]
} {
	t.Helper()
	rmat, err := sparse.RMAT[int64](7, 6, 91)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name       string
		a, b, mask *sparse.CSR[int64]
	}{
		{"rmat", rmat, sparse.ErdosRenyi[int64](128, 4, 92), sparse.ErdosRenyi[int64](128, 30, 93)},
		{"rect", rectER(90, 130, 4, 94), rectER(130, 70, 4, 95), rectER(90, 70, 20, 96)},
		{"hyper", sparse.ErdosRenyi[int64](128, 0.3, 97), sparse.ErdosRenyi[int64](128, 5, 98),
			sparse.ErdosRenyi[int64](128, 40, 99)},
	}
}

// rectER is an nr×nc corner of an Erdős–Rényi matrix.
func rectER(nr, nc int, d float64, seed int64) *sparse.CSR[int64] {
	return sparse.ErdosRenyi[int64](max(nr, nc), d, seed).SubMatrix(0, nr, 0, nc)
}

// hashMat fingerprints every block of m: shape, row pointers, indices and
// value bits.
func hashMat[T semiring.Number](m *dist.Mat[T]) uint64 {
	h := fnv.New64a()
	for _, blk := range m.Blocks {
		fmt.Fprint(h, blk.NRows, blk.NCols, blk.RowPtr, blk.ColIdx, blk.Val)
	}
	return h.Sum64()
}

// summaModeledFingerprint is the FNV-64a of every modeled-time delta
// TestSUMMAZeroCopyParity records, in order, as produced by the copying
// (SubMatrix-per-stage) implementation on amd64. The modeled clock is
// bit-reproducible on one architecture only: compilers for FMA targets
// such as arm64 may fuse the cost arithmetic and round differently, so the
// comparison runs on amd64 alone.
const summaModeledFingerprint = 0xa5f1923f4c663cdc

func TestSUMMAZeroCopyParity(t *testing.T) {
	sr := semiring.PlusTimes[int64]()
	fp := fnv.New64a()
	var cases []string
	for _, in := range summaParityInputs(t) {
		for _, gr := range summaParityGrids {
			rt := summaGridRT(t, gr)
			a := dist.MatFromCSR(rt, in.a)
			b := dist.MatFromCSR(rt, in.b)
			mask := dist.MatFromCSR(rt, in.mask)
			// The references run the sequential kernel on the gathered
			// operands.
			ga, err := a.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			gb, err := b.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			var want sparse.CSR[int64]
			SpGEMMLocal(nil, ga, gb, sr, &want)
			wantMasked, err := SpGEMMMasked(ga, gb, in.mask, sr)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				op   string
				run  func() (*dist.Mat[int64], error)
				want *sparse.CSR[int64]
			}{
				{"SpGEMMDist", func() (*dist.Mat[int64], error) { return SpGEMMDist(rt, a, b, sr) }, &want},
				{"SpGEMMDistMasked", func() (*dist.Mat[int64], error) { return SpGEMMDistMasked(rt, a, b, mask, sr) }, wantMasked},
			} {
				t0 := rt.S.Elapsed()
				c, err := tc.run()
				if err != nil {
					t.Fatalf("%s %s %s: %v", in.name, gr.label, tc.op, err)
				}
				dt := rt.S.Elapsed() - t0
				fmt.Fprint(fp, math.Float64bits(dt))
				cases = append(cases, fmt.Sprintf("%s %s %s: %v ns", in.name, gr.label, tc.op, dt))
				wantBlocks := dist.MatFromCSR(rt, tc.want)
				for l, blk := range c.Blocks {
					if !blk.Equal(wantBlocks.Blocks[l]) {
						t.Errorf("%s %s %s: block %d differs from the sequential product", in.name, gr.label, tc.op, l)
					}
				}
			}
		}
	}
	if got := fp.Sum64(); runtime.GOARCH == "amd64" && got != summaModeledFingerprint {
		t.Errorf("modeled-time fingerprint %#x, want %#x: a SUMMA stage charges differently; modeled per case:\n%s",
			got, uint64(summaModeledFingerprint), strings.Join(cases, "\n"))
	}
}

// TestSUMMALeavesOperandsUntouched hashes the operand blocks around every
// call, including the masked triangle shape where A, B and the mask are one
// matrix, and scribbles over the product to prove it shares no storage with
// them.
func TestSUMMALeavesOperandsUntouched(t *testing.T) {
	sr := semiring.PlusTimes[int64]()
	for _, in := range summaParityInputs(t) {
		for _, gr := range summaParityGrids {
			rt := summaGridRT(t, gr)
			a := dist.MatFromCSR(rt, in.a)
			b := dist.MatFromCSR(rt, in.b)
			m := min(in.a.NRows, in.a.NCols)
			sq := dist.MatFromCSR(rt, in.a.SubMatrix(0, m, 0, m))
			ha, hb, hsq := hashMat(a), hashMat(b), hashMat(sq)
			var into dist.Mat[int64]
			outs := make([]*dist.Mat[int64], 0, 3)
			for _, run := range []func() (*dist.Mat[int64], error){
				func() (*dist.Mat[int64], error) { return SpGEMMDist(rt, a, b, sr) },
				func() (*dist.Mat[int64], error) { return SpGEMMDistMasked(rt, sq, sq, sq, sr) },
				func() (*dist.Mat[int64], error) { return &into, SpGEMMDistInto(rt, a, b, sr, &into) },
			} {
				c, err := run()
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, c)
			}
			for _, c := range outs {
				for _, blk := range c.Blocks {
					for k := range blk.Val {
						blk.Val[k] = -7
					}
					for k := range blk.ColIdx {
						blk.ColIdx[k] = -1
					}
				}
			}
			if hashMat(a) != ha || hashMat(b) != hb || hashMat(sq) != hsq {
				t.Errorf("%s %s: an operand block changed across SUMMA calls", in.name, gr.label)
			}
		}
	}
	var c dist.Mat[int64]
	rt := newRT(t, 4, 4)
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](40, 3, 1))
	if err := SpGEMMDistInto(rt, a, a, sr, a); err == nil {
		t.Error("SpGEMMDistInto accepted an output that aliases an operand")
	}
	if err := SpGEMMDistInto(rt, a, a, sr, &c); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSpGEMMDist measures the wall-clock cost and allocations of A·A
// on an R-MAT scale-12 graph, on a square grid (panels are blocks) and a
// 1×3 grid (B panels are row views). Not gated; the steady-state zero is
// pinned by TestSpGEMMDistZeroAllocSteadyState.
func BenchmarkSpGEMMDist(b *testing.B) {
	a0, err := sparse.RMAT[int64](12, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	sr := semiring.PlusTimes[int64]()
	for _, p := range []int{4, 3} {
		rt, err := locale.New(machine.Edison(), p, 4)
		if err != nil {
			b.Fatal(err)
		}
		a := dist.MatFromCSR(rt, a0)
		b.Run(fmt.Sprintf("%dx%d", rt.G.Pr, rt.G.Pc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SpGEMMDist(rt, a, a, sr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
