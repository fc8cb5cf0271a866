package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/gb"
)

const testScale = 8

func TestSameSeedSameInputs(t *testing.T) {
	a, err := MakeInputs(7, testScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MakeInputs(7, testScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash || !reflect.DeepEqual(a.Graph, b.Graph) || !reflect.DeepEqual(a.Sources, b.Sources) ||
		!reflect.DeepEqual(a.Batches, b.Batches) || !reflect.DeepEqual(a.Temporal, b.Temporal) {
		t.Fatal("same seed produced different inputs")
	}
	if pa, pb := planTraffic(Config{Workload: "traverse", Seed: 7}, a), planTraffic(Config{Workload: "traverse", Seed: 7}, b); !reflect.DeepEqual(pa, pb) {
		t.Fatal("same seed produced different traffic")
	}
	c, err := MakeInputs(8, testScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash == a.Hash || reflect.DeepEqual(c.Sources, a.Sources) {
		t.Fatal("different seeds produced the same inputs")
	}
}

// The graph is undirected, loop-free and unit-weighted, sources have edges,
// and each write batch keeps nnz constant.
func TestInputsShape(t *testing.T) {
	in, err := MakeInputs(3, testScale, 6)
	if err != nil {
		t.Fatal(err)
	}
	g := in.Graph
	for u := 0; u < g.NRows; u++ {
		cols, vals := g.Row(u)
		for k, v := range cols {
			if v == u || vals[k] != 1 {
				t.Fatalf("entry (%d,%d)=%v: want no self-loops and weight 1", u, v, vals[k])
			}
			if _, ok := g.Get(v, u); !ok {
				t.Fatalf("edge (%d,%d) not mirrored", u, v)
			}
		}
	}
	for _, s := range in.Sources {
		if g.RowNNZ(s) == 0 {
			t.Fatalf("source %d has no edge", s)
		}
	}
	for e := 0; e < in.Epochs(); e++ {
		arcs := 0
		for u := 0; u < g.NRows; u++ {
			in.Temporal.Neighbors(u, uint32(e), func(int) { arcs++ })
		}
		if arcs != g.NNZ() {
			t.Fatalf("epoch %d has %d arcs, want %d", e, arcs, g.NNZ())
		}
	}
}

// benchmarkFile is BENCHMARK.json's metric lists.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []Metric `json:"end_to_end"`
	PerLayer  []Metric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the benchmark's list:\n%v\n%v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json differs from the benchmark's list")
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
}

// Every workload emits exactly its metric list, each with its unit, in both
// modes.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := Run(Config{Workload: wl, Seed: 5, Window: 300 * time.Millisecond, Warmup: 200 * time.Millisecond, Trace: traced,
				Scale: testScale, Setups: 1, Reps: 1, Out: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			list := endToEnd
			if traced {
				list = perLayer()
			}
			if len(rep.Metrics) != len(list) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(rep.Metrics), len(list))
			}
			for _, m := range list {
				v, ok := rep.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl, traced, m.Name, v, m.Unit)
				}
			}
			if rep.Attempted < 1 || rep.Failed != 0 || !rep.Correct {
				t.Errorf("%s trace=%v: attempted %d failed %d correct %v", wl, traced, rep.Attempted, rep.Failed, rep.Correct)
			}
			if !traced {
				for _, m := range endToEnd {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl, m.Name, rep.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// libraryAnswers runs the library on the inputs' graph.
func libraryAnswers(t *testing.T, in *Inputs) (*gb.BFSResult, []float64, []float64, []int64, int) {
	t.Helper()
	ctx, m, err := probeContext(in)
	if err != nil {
		t.Fatal(err)
	}
	src := in.Sources[0]
	bfs, err := gb.BFS(ctx, m, src)
	if err != nil {
		t.Fatal(err)
	}
	dist, _, err := gb.SSSP(m, src)
	if err != nil {
		t.Fatal(err)
	}
	ranks, _, err := gb.PageRank(m, prDamping, 1e-6, 100)
	if err != nil {
		t.Fatal(err)
	}
	labels, comps, err := gb.ConnectedComponents(m)
	if err != nil {
		t.Fatal(err)
	}
	return bfs, dist, ranks, labels, comps
}

func TestCheckerAcceptsLibraryAnswers(t *testing.T) {
	in, err := MakeInputs(11, testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(in.Temporal)
	src := in.Sources[0]
	bfs, dist, ranks, labels, comps := libraryAnswers(t, in)
	if r := chk.CheckBFS(0, src, bfs.Level, bfs.Parent); r != "" {
		t.Errorf("BFS rejected: %s", r)
	}
	raw := make([]json.RawMessage, len(dist))
	for i, d := range dist {
		raw[i] = json.RawMessage(strconv.FormatFloat(d, 'g', -1, 64))
	}
	if r := chk.CheckSSSP(0, src, raw); r != "" {
		t.Errorf("SSSP rejected: %s", r)
	}
	if r := chk.CheckPageRank(0, ranks); r != "" {
		t.Errorf("PageRank rejected: %s", r)
	}
	if r := chk.CheckCC(0, labels, comps); r != "" {
		t.Errorf("CC rejected: %s", r)
	}
	ctx, m, err := probeContext(in)
	if err != nil {
		t.Fatal(err)
	}
	if tri, err := gb.TriangleCount(m.WithContext(ctx)); err != nil || tri != chk.Triangles() {
		t.Errorf("triangles %d (%v), reference %d", tri, err, chk.Triangles())
	}
}

func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	in, err := MakeInputs(11, testScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(in.Temporal)
	src := in.Sources[0]
	bfs, dist, ranks, labels, comps := libraryAnswers(t, in)

	lv := append([]int64(nil), bfs.Level...)
	for v := range lv {
		if lv[v] > 0 {
			lv[v]++ // one flipped level
			break
		}
	}
	if r := chk.CheckBFS(0, src, lv, nil); r != "wrong_levels" {
		t.Errorf("flipped BFS level: got %q", r)
	}
	par := append([]int64(nil), bfs.Parent...)
	for v := range par {
		if par[v] >= 0 && v != src {
			par[v] = int64(v) // a vertex as its own parent
			break
		}
	}
	if r := chk.CheckBFS(0, src, bfs.Level, par); r != "wrong_parents" {
		t.Errorf("broken BFS tree: got %q", r)
	}
	raw := make([]json.RawMessage, len(dist))
	for i, d := range dist {
		if math.IsInf(d, 1) {
			d = 0 // unreachable reported as reachable
		}
		raw[i] = json.RawMessage(strconv.FormatFloat(d, 'g', -1, 64))
	}
	if r := chk.CheckSSSP(0, src, raw); r != "wrong_dist" {
		t.Errorf("bad distance: got %q", r)
	}
	pr := append([]float64(nil), ranks...)
	pr[0] += 1e-3
	if r := chk.CheckPageRank(0, pr); r != "wrong_ranks" {
		t.Errorf("perturbed rank: got %q", r)
	}
	lb := append([]int64(nil), labels...)
	lb[len(lb)-1] = -5
	if r := chk.CheckCC(0, lb, comps); r != "wrong_labels" {
		t.Errorf("bad label: got %q", r)
	}
	if r := chk.CheckCC(0, labels, comps+1); r != "wrong_components" {
		t.Errorf("bad component count: got %q", r)
	}

	q := newQuery("bfs", src)
	if r := judge(chk, q, Reply{Status: http.StatusOK, Epoch: "0"}, in.Epochs()); r.Reason != "empty_body" {
		t.Errorf("empty 200 body: got %q", r.Reason)
	}
	body, _ := json.Marshal(map[string]any{"levels": lv})
	if r := judge(chk, q, Reply{Status: http.StatusOK, Epoch: "0", Body: body}, in.Epochs()); r.Reason != "wrong_levels" {
		t.Errorf("flipped level over HTTP: got %q", r.Reason)
	}
	body, _ = json.Marshal(map[string]any{"levels": bfs.Level})
	if r := judge(chk, q, Reply{Status: http.StatusOK, Epoch: "0", Body: body}, in.Epochs()); r.Reason != "" || !r.Decoded {
		t.Errorf("library levels over HTTP: got %q", r.Reason)
	}
	if r := judge(chk, q, Reply{Status: http.StatusTooManyRequests}, in.Epochs()); r.Reason != "status_429" {
		t.Errorf("shed reply: got %q", r.Reason)
	}
}

// The service's own answers pass the checker at a later epoch, after write
// batches, and the write path commits the epochs the checker expects.
func TestServedAnswersAfterWrites(t *testing.T) {
	in, err := MakeInputs(13, testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	chk := NewChecker(in.Temporal)
	srv, err := startServer(in.Graph)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(srv.URL, "t")
	defer func() {
		c.Close()
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()
	for k, b := range in.Batches {
		body, _ := json.Marshal(b)
		if r := writeBatch(c, body, []byte("{}"), uint64(k+1)); r != "" {
			t.Fatalf("batch %d: %s", k, r)
		}
	}
	for _, op := range []string{"bfs", "pagerank", "cc"} {
		q := newQuery(op, in.Sources[1])
		rp, err := c.post("/query", q.body)
		if err != nil {
			t.Fatal(err)
		}
		r := judge(chk, q, rp, in.Epochs())
		if r.Reason != "" || rp.Epoch != strconv.Itoa(len(in.Batches)) {
			t.Errorf("%s at epoch %s: %q", op, rp.Epoch, r.Reason)
		}
	}
}

// Goodput and latency quantiles are medians over the window's slices: one
// slow, thin slice moves neither.
func TestSlicedFiguresIgnoreOneBadSlice(t *testing.T) {
	w := &Window{elapsed: 10 * time.Second}
	for s := 0; s < 10; s++ {
		n, lat := 40, 1.0
		if s == 3 {
			n, lat = 5, 100 // interference: few ops, all slow
		}
		for i := 0; i < n; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			w.results = append(w.results, Result{Op: "bfs", LatMS: lat, At: at})
		}
	}
	parts, secs := w.sliceReads()
	if len(parts) != 10 || secs != 1 || len(parts[3]) != 5 {
		t.Fatalf("%d slices of %vs, slice 3 holds %d reads", len(parts), secs, len(parts[3]))
	}
	v := w.endToEnd()
	if v["goodput_qps"] != 40 || v["p50_ms"] != 1 || v["p90_ms"] != 1 {
		t.Errorf("goodput %v p50 %v p90 %v, want 40, 1, 1", v["goodput_qps"], v["p50_ms"], v["p90_ms"])
	}
}
