package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/trace"
)

const graphName = "g"

// serverConfig is cmd/gbserve's flag defaults, except admission: the tenant
// rate and burst are set so the closed loops can never be shed however fast
// the service gets (a speed-up must not show up as 429s).
func serverConfig() serve.Config {
	return serve.Config{
		Locales: 4, Threads: 4,
		EpochHistory: 8, BatchWindow: 2 * time.Millisecond,
		MaxConcurrent: 8, MaxQueue: 16, MaxWait: 250 * time.Millisecond,
		TenantRate: 1e9, TenantBurst: 1 << 30,
		DefaultTimeout: 10 * time.Second,
		// gbserve always attaches the operator tracer; it is part of the
		// system under test, not the benchmark's tracing.
		Tracer: trace.New(),
	}
}

// Server is the service under test behind a loopback listener.
type Server struct {
	Srv  *serve.Server
	hs   *http.Server
	done chan error
	URL  string
}

// startServer builds the service, loads g and starts serving HTTP.
func startServer(g *sparse.CSR[float64]) (*Server, error) {
	s := serve.New(serverConfig())
	if err := s.LoadGraph(graphName, g); err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return &Server{Srv: s, hs: hs, done: done, URL: "http://" + ln.Addr().String()}, nil
}

// Close drains the service, shuts the listener and waits for it to stop.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.Srv.Drain(ctx)
	serr := s.hs.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	return errors.Join(derr, serr)
}

// Client is one load-generating connection: its own transport, so each
// client holds exactly one keep-alive connection.
type Client struct {
	tr     *http.Transport
	hc     *http.Client
	base   string
	tenant string
	buf    bytes.Buffer
}

func newClient(base, tenant string) *Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	// The timeout only guarantees the run ends; the service's own default
	// query timeout (10 s) is far below it.
	return &Client{tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, tenant: tenant}
}

func (c *Client) Close() { c.tr.CloseIdleConnections() }

// Reply is one HTTP exchange. Body is valid until the client's next call.
type Reply struct {
	Status int
	Epoch  string // X-GB-Epoch
	Body   []byte
	Lat    time.Duration // send to last byte of the body
}

// post sends body to path and reads the whole response.
func (c *Client) post(path string, body []byte) (Reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return Reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", c.tenant)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return Reply{Lat: time.Since(t0)}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return Reply{Lat: lat}, err
	}
	return Reply{Status: resp.StatusCode, Epoch: resp.Header.Get("X-GB-Epoch"), Body: c.buf.Bytes(), Lat: lat}, nil
}

// get fetches path (used for /metrics).
func (c *Client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// Query is one read op with its pre-encoded request body.
type Query struct {
	Op     string
	Source int
	Think  time.Duration // pause before sending, after the previous reply
	body   []byte
}

func newQuery(op string, src int) Query {
	b, _ := json.Marshal(map[string]any{"graph": graphName, "op": op, "source": src})
	return Query{Op: op, Source: src, body: b}
}

// Result is one attempted op's outcome.
type Result struct {
	Op        string
	Write     bool
	LatMS     float64
	Reason    string // "" when the op succeeded with a correct answer
	Decoded   bool   // the reply carried an answer that was checked
	ModeledMS float64
	Batch     int
	LateMS    float64       // writes: how late the paced send started
	At        time.Duration // completion, from the start of the window
}

// queryReply is the part of the /query response the checker reads.
type queryReply struct {
	Batch      int               `json:"batch"`
	Levels     []int64           `json:"levels"`
	Parents    []int64           `json:"parents"`
	Dist       []json.RawMessage `json:"dist"`
	Ranks      []float64         `json:"ranks"`
	Labels     []int64           `json:"labels"`
	Components int               `json:"components"`
	ModeledMS  float64           `json:"modeled_ms"`
}

// judge decodes and checks one /query reply. maxEpoch bounds the epochs the
// checker's graph copy covers.
func judge(chk *Checker, q Query, rp Reply, maxEpoch int) Result {
	r := Result{Op: q.Op, LatMS: ms(rp.Lat)}
	if rp.Status != http.StatusOK {
		r.Reason = "status_" + strconv.Itoa(rp.Status)
		return r
	}
	if len(rp.Body) == 0 {
		r.Reason = "empty_body"
		return r
	}
	var qr queryReply
	if err := json.Unmarshal(rp.Body, &qr); err != nil {
		r.Reason = "decode"
		return r
	}
	r.ModeledMS, r.Batch, r.Decoded = qr.ModeledMS, qr.Batch, true
	ep, err := strconv.ParseUint(rp.Epoch, 10, 32)
	if err != nil {
		r.Reason = "epoch_header"
		return r
	}
	if int(ep) >= maxEpoch {
		r.Reason = "epoch_unknown"
		return r
	}
	r.Reason = checkAnswer(chk, uint32(ep), q, &qr)
	return r
}

// checkAnswer runs the op's check on a decoded reply.
func checkAnswer(chk *Checker, epoch uint32, q Query, qr *queryReply) string {
	switch q.Op {
	case "bfs":
		return chk.CheckBFS(epoch, q.Source, qr.Levels, qr.Parents)
	case "sssp":
		return chk.CheckSSSP(epoch, q.Source, qr.Dist)
	case "pagerank":
		return chk.CheckPageRank(epoch, qr.Ranks)
	case "cc":
		return chk.CheckCC(epoch, qr.Labels, qr.Components)
	}
	return "unknown_op"
}

// closedLoop sends qs in order (cycling) from t0 until deadline, each
// request only after the previous reply was read and checked.
func closedLoop(c *Client, chk *Checker, qs []Query, t0, deadline time.Time, maxEpoch int) []Result {
	var out []Result
	for i := 0; time.Now().Before(deadline); i++ {
		q := qs[i%len(qs)]
		if q.Think > 0 {
			time.Sleep(q.Think)
		}
		rp, err := c.post("/query", q.body)
		at := time.Since(t0)
		r := Result{Op: q.Op, LatMS: ms(rp.Lat), Reason: "transport"}
		if err == nil {
			r = judge(chk, q, rp, maxEpoch)
		}
		r.At = at
		out = append(out, r)
	}
	return out
}

// pacedWriter sends one write batch (a /mutate then a /flush) every
// 1/writerRate seconds from t0 until deadline, open loop: each batch is timed
// from its scheduled send time. bodies[k] commits epoch k+1; the first timed
// batch is bodies[first].
func pacedWriter(c *Client, bodies [][]byte, first int, t0, deadline time.Time) []Result {
	var out []Result
	flush := []byte("{}")
	for k := 0; first+k < len(bodies); k++ {
		sched := t0.Add(time.Duration(k) * time.Second / writerRate)
		if !sched.Before(deadline) {
			break
		}
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		r := Result{Op: "write", Write: true, LateMS: ms(time.Since(sched))}
		r.Reason = writeBatch(c, bodies[first+k], flush, uint64(first+k+1))
		r.LatMS = ms(time.Since(sched))
		r.At = time.Since(t0)
		out = append(out, r)
	}
	return out
}

// writeBatch mutates and flushes, checking the committed epoch.
func writeBatch(c *Client, body, flush []byte, want uint64) string {
	rp, err := c.post("/graphs/"+graphName+"/mutate", body)
	if err != nil {
		return "transport"
	}
	if rp.Status != http.StatusOK {
		return "mutate_status_" + strconv.Itoa(rp.Status)
	}
	rp, err = c.post("/graphs/"+graphName+"/flush", flush)
	if err != nil {
		return "transport"
	}
	if rp.Status != http.StatusOK {
		return "flush_status_" + strconv.Itoa(rp.Status)
	}
	var fr struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(rp.Body, &fr); err != nil {
		return "decode"
	}
	if fr.Epoch != want {
		return "epoch_mismatch"
	}
	return ""
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
