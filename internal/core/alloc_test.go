package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// These tests pin down the tentpole guarantee of the zero-allocation work:
// once the runtime's worker pool and scratch arena are warm, the hot kernels
// allocate nothing per call. testing.AllocsPerRun runs with GOMAXPROCS(1) and
// reports the exact per-call allocation count, so any regression — a closure
// escaping onto the heap, a forgotten arena checkout, a variadic trace tag —
// fails the test with the precise number of bytes-worth of damage.

func incr[T int64 | float64](v T) T { return v + 1 }

// warmups is how many calls prime the arena before measuring. More than one:
// the first call sizes the pooled buffers, and sync.Pool keeps per-P caches
// that a single pass may not populate.
const warmups = 5

func TestSpMSpVShmBucketZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	a := sparse.ErdosRenyi[int64](5000, 8, 1)
	x := sparse.RandomVec[int64](5000, 400, 2)
	rt := newRT(t, 1, 24)
	cfg := ShmConfig{
		Threads: 24,
		Workers: 1,
		Engine:  EngineBucket,
		Sim:     rt.S,
		Pool:    rt.WP,
		Scratch: rt.Scratch,
	}
	for i := 0; i < warmups; i++ {
		y, _ := SpMSpVShm(a, x, cfg)
		sparse.PutVec(cfg.Scratch, y)
	}
	avg := testing.AllocsPerRun(50, func() {
		y, _ := SpMSpVShm(a, x, cfg)
		sparse.PutVec(cfg.Scratch, y)
	})
	if avg != 0 {
		t.Fatalf("SpMSpVShm (bucket engine) allocates %.1f objects per steady-state call, want 0", avg)
	}
}

func TestSpMSpVShmBucketSemiringZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	a := sparse.ErdosRenyi[int64](5000, 8, 3)
	x := sparse.RandomVec[int64](5000, 400, 4)
	sr := semiring.PlusTimes[int64]()
	rt := newRT(t, 1, 24)
	cfg := ShmConfig{
		Threads: 24,
		Workers: 1,
		Engine:  EngineBucket,
		Sim:     rt.S,
		Pool:    rt.WP,
		Scratch: rt.Scratch,
	}
	for i := 0; i < warmups; i++ {
		y, _ := SpMSpVShmSemiring(a, x, sr, cfg)
		sparse.PutVec(cfg.Scratch, y)
	}
	avg := testing.AllocsPerRun(50, func() {
		y, _ := SpMSpVShmSemiring(a, x, sr, cfg)
		sparse.PutVec(cfg.Scratch, y)
	})
	if avg != 0 {
		t.Fatalf("SpMSpVShmSemiring (bucket engine) allocates %.1f objects per steady-state call, want 0", avg)
	}
}

func TestEWiseMultSDIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	x0 := sparse.RandomVec[int64](8000, 1500, 7)
	y0 := sparse.RandomBoolDense[int64](8000, 0.5, 8)
	rt := newRT(t, 4, 24)
	x := dist.SpVecFromVec(rt, x0)
	y := dist.DenseVecFromDense(rt, y0)
	z := dist.NewSpVec[int64](rt, x.N)
	for i := 0; i < warmups; i++ {
		if err := EWiseMultSDInto(rt, x, y, keepWhenTrue[int64], z); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := EWiseMultSDInto(rt, x, y, keepWhenTrue[int64], z); err != nil {
			panic(err)
		}
	})
	if avg != 0 {
		t.Fatalf("EWiseMultSDInto allocates %.1f objects per steady-state call, want 0", avg)
	}
}

func TestApply2ZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	x0 := sparse.RandomVec[int64](8000, 1500, 9)
	rt := newRT(t, 4, 24)
	x := dist.SpVecFromVec(rt, x0)
	for i := 0; i < warmups; i++ {
		Apply2(rt, x, incr[int64])
	}
	avg := testing.AllocsPerRun(50, func() {
		Apply2(rt, x, incr[int64])
	})
	if avg != 0 {
		t.Fatalf("Apply2 allocates %.1f objects per steady-state call, want 0", avg)
	}
}

// TestSpMSpVMaskedZeroAllocSteadyState covers the masked wrapper: the
// intermediate unmasked product must come from — and return to — the arena.
func TestSpMSpVMaskedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	a := sparse.ErdosRenyi[int64](5000, 8, 11)
	x := sparse.RandomVec[int64](5000, 400, 12)
	mask := sparse.RandomBoolDense[int64](5000, 0.3, 13)
	rt := newRT(t, 1, 24)
	cfg := ShmConfig{
		Threads: 24,
		Workers: 1,
		Engine:  EngineBucket,
		Sim:     rt.S,
		Pool:    rt.WP,
		Scratch: rt.Scratch,
	}
	for i := 0; i < warmups; i++ {
		y, _ := SpMSpVMasked(a, x, mask, cfg)
		sparse.PutVec(cfg.Scratch, y)
	}
	avg := testing.AllocsPerRun(50, func() {
		y, _ := SpMSpVMasked(a, x, mask, cfg)
		sparse.PutVec(cfg.Scratch, y)
	})
	if avg != 0 {
		t.Fatalf("SpMSpVMasked allocates %.1f objects per steady-state call, want 0", avg)
	}
}

// TestFusedPushStepShmZeroAllocSteadyState covers the fused BFS push step:
// the SpMSpV product comes from the arena, the frontier is rebuilt in place,
// and the fused-region span is elided when tracing is off — so a warm call
// allocates nothing. The graph state is rewound between runs without
// allocating (the buffers keep their high-water capacity).
func TestFusedPushStepShmZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	const n, src = 5000, 3
	a := sparse.ErdosRenyi[int64](n, 8, 17)
	rt := newRT(t, 1, 24)
	cfg := ShmConfig{
		Threads: 24,
		Workers: 1,
		Engine:  EngineBucket,
		Sim:     rt.S,
		Pool:    rt.WP,
		Scratch: rt.Scratch,
		Fused:   true,
	}
	frontier := sparse.NewVec[int64](n)
	visited := sparse.NewDense[int64](n)
	levels := make([]int64, n)
	parents := make([]int64, n)
	reset := func() {
		for i := range visited.Data {
			visited.Data[i] = 0
			levels[i] = -1
			parents[i] = -1
		}
		visited.Data[src] = 1
		levels[src] = 0
		frontier.Ind = append(frontier.Ind[:0], src)
		frontier.Val = append(frontier.Val[:0], 1)
	}
	for i := 0; i < warmups; i++ {
		reset()
		FusedPushStepShm(a, frontier, visited, 1, levels, parents, cfg)
	}
	avg := testing.AllocsPerRun(50, func() {
		reset()
		FusedPushStepShm(a, frontier, visited, 1, levels, parents, cfg)
	})
	if avg != 0 {
		t.Fatalf("FusedPushStepShm allocates %.1f objects per steady-state call, want 0", avg)
	}
}

func TestSpGEMMLocalZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	scratch := sparse.NewScratchPool()
	sr := semiring.PlusTimes[int64]()
	a := sparse.ErdosRenyi[int64](2000, 6, 31)
	b := sparse.ErdosRenyi[int64](2000, 6, 32)
	hs := sparse.ErdosRenyi[int64](2000, 0.4, 33) // hypersparse: DCSC walk
	var out sparse.CSR[int64]
	for i := 0; i < warmups; i++ {
		SpGEMMLocalHash(scratch, a, b, sr, &out)
		SpGEMMLocalHeap(scratch, a, b, sr, &out)
		SpGEMMLocalHeap(scratch, hs, b, sr, &out)
	}
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"hash", func() { SpGEMMLocalHash(scratch, a, b, sr, &out) }},
		{"heap", func() { SpGEMMLocalHeap(scratch, a, b, sr, &out) }},
		{"heap hypersparse (DCSC)", func() { SpGEMMLocalHeap(scratch, hs, b, sr, &out) }},
	} {
		if avg := testing.AllocsPerRun(50, tc.f); avg != 0 {
			t.Errorf("SpGEMMLocal %s allocates %.1f objects per steady-state call, want 0", tc.name, avg)
		}
	}
}

func TestDCSCConvertZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	a := sparse.ErdosRenyi[int64](3000, 2, 34)
	var d sparse.DCSC[int64]
	for i := 0; i < warmups; i++ {
		d.FromCSR(a)
	}
	if avg := testing.AllocsPerRun(50, func() { d.FromCSR(a) }); avg != 0 {
		t.Fatalf("DCSC.FromCSR allocates %.1f objects per steady-state call, want 0", avg)
	}
}

// TestSpGEMMDistZeroAllocSteadyState pins the SUMMA stage loop: with the
// output matrix reused (SpGEMMDistInto) and the workspace recycled through
// the scratch arena, a warm call copies no panel and allocates nothing — on
// a square grid (panels are the blocks), a 1×p grid (B panels are row
// views) and a 2×3 grid (A panels are extracted column windows).
func TestSpGEMMDistZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	sr := semiring.PlusTimes[int64]()
	a0 := sparse.ErdosRenyi[int64](600, 5, 41)
	b0 := sparse.ErdosRenyi[int64](600, 5, 42)
	for _, p := range []int{4, 3, 6} {
		rt := newRT(t, p, 4)
		a := dist.MatFromCSR(rt, a0)
		b := dist.MatFromCSR(rt, b0)
		var c dist.Mat[int64]
		for i := 0; i < warmups; i++ {
			if err := SpGEMMDistInto(rt, a, b, sr, &c); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(50, func() {
			if err := SpGEMMDistInto(rt, a, b, sr, &c); err != nil {
				panic(err)
			}
		})
		if avg != 0 {
			t.Errorf("SpGEMMDistInto on %dx%d grid allocates %.1f objects per steady-state call, want 0",
				rt.G.Pr, rt.G.Pc, avg)
		}
	}
}

// TestSummaPoolPerElementType pins the SUMMA workspace pools' keying: one
// pool per element type, stable across calls, so int64 and float64 SUMMA
// calls never take or evict each other's workspace.
func TestSummaPoolPerElementType(t *testing.T) {
	if summaPool[int64]() != summaPool[int64]() {
		t.Error("summaPool[int64] is not stable across calls")
	}
	if summaPool[int64]() == summaPool[float64]() {
		t.Error("int64 and float64 SUMMA calls share one workspace pool")
	}
}
