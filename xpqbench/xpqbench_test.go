package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
)

// A handler that stalls once must raise the latency of every request
// that fell due during the stall, not just the stalled one: latency
// counts from the due time (no coordinated omission).
func TestOpenLoopCountsStallAgainstLaterRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := newHTTPClient(1)
	ops := make([]Op, 60)
	for i := range ops {
		ops[i].Due = time.Duration(i) * 5 * time.Millisecond
	}
	res := openLoop(ops, 1, func(op Op, due time.Time) []sample {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			return []sample{{err: err.Error()}}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return []sample{{ok: true, latency: time.Since(due)}}
	})
	if len(res.samples) != len(ops) {
		t.Fatalf("%d samples, want %d", len(res.samples), len(ops))
	}
	// Requests 5..44 fell due during the stall (20ms..220ms); with one
	// connection each waited for it, so most must show ≥50ms even
	// though the server answered them instantly.
	slow := 0
	for _, s := range res.samples {
		if !s.ok {
			t.Fatal(s.err)
		}
		if s.latency >= 50*time.Millisecond {
			slow++
		}
	}
	if slow < 25 {
		t.Errorf("%d requests at ≥50ms; the stall was hidden from the requests queued behind it", slow)
	}
	if len(res.backlog) < 25 {
		t.Errorf("%d ops reported a backlog, want the ones queued behind the stall", len(res.backlog))
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false}} {
		v, ok := quantile(mk(c.n), c.q)
		if ok != c.want {
			t.Errorf("n=%d q=%v: reportable=%v, want %v", c.n, c.q, ok, c.want)
		}
		if c.n == 1000 && v != 990 {
			t.Errorf("p99 of 1..1000 = %v, want 990", v)
		}
	}
}

// Capacity windows count completions after the ramp, in whole windows
// only, and skip failed requests.
func TestCapacityRatesSkipRampAndFailures(t *testing.T) {
	t0 := time.Now()
	res := loopResult{start: t0, elapsed: 2300 * time.Millisecond}
	at := func(d time.Duration, ok bool) sample { return sample{ok: ok, due: t0, latency: d} }
	for i := 0; i < 50; i++ {
		res.samples = append(res.samples,
			at(time.Duration(i)*10*time.Millisecond, true),                          // ramp
			at(990*time.Millisecond, true),                                          // end of ramp
			at(time.Second+time.Duration(i)*10*time.Millisecond, true),              // window 0
			at(1500*time.Millisecond+time.Duration(i)*2*time.Millisecond, i%2 == 0), // window 1
			at(2200*time.Millisecond, true))                                         // partial window
	}
	rates, ok := capacityRates(res, time.Second, 500*time.Millisecond)
	if len(rates) != 2 || rates[0] != 100 || rates[1] != 50 {
		t.Errorf("rates %v, want [100 50]", rates)
	}
	if ok != 225 {
		t.Errorf("%d successful requests, want 225", ok)
	}
}

// Joined slices run back to back on one timeline: the second slice's
// samples land in the phase's second half however long the gap
// between the slices was.
func TestJoinSlicesRunsBackToBack(t *testing.T) {
	t0 := time.Now()
	slice := func(start time.Time) loopResult {
		res := loopResult{start: start, span: time.Second, elapsed: time.Second}
		for i := 0; i < 300; i++ {
			res.samples = append(res.samples, sample{ok: true, due: start.Add(time.Duration(i) * 3 * time.Millisecond), latency: time.Millisecond})
		}
		return res
	}
	res := joinSlices([]loopResult{slice(t0), slice(t0.Add(7 * time.Second))})
	if res.span != 2*time.Second || res.elapsed != 2*time.Second || len(res.samples) != 600 {
		t.Fatalf("span %v, elapsed %v, %d samples; want 2s, 2s, 600", res.span, res.elapsed, len(res.samples))
	}
	for i, s := range res.samples {
		if half := int(s.due.Sub(res.start) / time.Second); half != i/300 {
			t.Fatalf("sample %d lands in second %d, want %d", i, half, i/300)
		}
	}
}

// A PATCH of a document never overlaps a read of the same document
// (see client.inflight); reads of it may overlap each other.
func TestPatchNeverOverlapsReadOfSameDocument(t *testing.T) {
	var readers, writers, overlaps atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPatch {
			writers.Add(1)
			if readers.Load() != 0 {
				overlaps.Add(1)
			}
			time.Sleep(3 * time.Millisecond)
			writers.Add(-1)
		} else {
			readers.Add(1)
			if writers.Load() != 0 {
				overlaps.Add(1)
			}
			time.Sleep(time.Millisecond)
			readers.Add(-1)
		}
		// Every request is refused: the test looks only at timing.
		http.Error(w, "no", http.StatusNotFound)
	}))
	defer srv.Close()
	docs := []*docSpec{{id: "d", patches: []patchStep{{Op: "delete", Node: 1}}}}
	wl := &workload{name: "t", queries: []string{"//a"}, limit: 10}
	cl := newClient(srv.URL, newHTTPClient(2), wl, docs, &oracle{}, []uint64{1})
	ops := make([]Op, 120)
	for i := range ops {
		ops[i] = Op{Kind: kindPage, Limit: 10}
		if i%3 == 0 {
			ops[i].Kind = kindPatch
		}
	}
	res := closedLoop(ops, 2, 300*time.Millisecond, cl.session)
	if len(res.samples) < 20 {
		t.Fatalf("only %d requests ran", len(res.samples))
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d requests overlapped a patch of the same document", n)
	}
}

// oracleFixture serves one small XMark document through the real
// handler and returns the oracle for it.
func oracleFixture(t *testing.T) (*httptest.Server, *oracle, []uint64, *workload, []*docSpec) {
	t.Helper()
	d := xmark.Generate(xmark.Config{Scale: 0.005, Seed: 3})
	st := shard.NewStore(2)
	h, err := st.Add("d", d, store.SourceDirect)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(st, service.Options{})
	srv := httptest.NewServer(service.NewHandler(svc, service.HandlerOptions{StreamChunk: 16}))
	t.Cleanup(srv.Close)
	docs := []*docSpec{{id: "d", states: []*tree.Document{d}}}
	wl := &workload{name: "t", queries: []string{"//listitem//keyword", "/site//keyword"}, limit: 10}
	or, err := buildOracle(docs, wl.queries)
	if err != nil {
		t.Fatal(err)
	}
	gen0, err := strconv.ParseUint(h.Gen.String(), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return srv, or, []uint64{gen0}, wl, docs
}

func post(t *testing.T, url string, body queryBody) []byte {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d: %v %s", resp.StatusCode, err, raw)
	}
	return raw
}

// The oracle accepts the daemon's real answers and rejects a page with
// one corrupted node id, a page that does not continue the previous
// one, and a stream cut before its trailer.
func TestOracleRejectsCorruptedPageAndTruncatedStream(t *testing.T) {
	srv, or, gen0, wl, docs := oracleFixture(t)
	c := &client{docs: docs, or: or, gen0: gen0, wl: wl}
	want := func(p *page) []int32 {
		w, err := c.wantFor(0, 0, p.gen)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}

	raw := post(t, srv.URL+"/query", queryBody{Doc: "d", Query: wl.queries[0], Limit: 10})
	p, err := parseQueryBody(200, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPage(p, want(p), -1, 10); err != nil {
		t.Fatalf("real first page rejected: %v", err)
	}
	p.nodes[3]++
	if checkPage(p, want(p), -1, 10) == nil {
		t.Error("a page with a corrupted node id was accepted")
	}
	p.nodes[3]--
	// The continuation must start right after the previous page.
	raw2 := post(t, srv.URL+"/query", queryBody{Doc: "d", Query: wl.queries[0], Limit: 10, Cursor: p.next})
	p2, err := parseQueryBody(200, raw2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPage(p2, want(p2), p.nodes[9], 10); err != nil {
		t.Fatalf("real second page rejected: %v", err)
	}
	if checkPage(p2, want(p2), p.nodes[8], 10) == nil {
		t.Error("a page that skips a node of the answer was accepted")
	}

	// 40 nodes of a 399-node answer, in chunks of 16.
	body := post(t, srv.URL+"/query/stream", queryBody{Doc: "d", Query: wl.queries[1], Limit: 40})
	parse := func(b []byte) (*page, error) {
		sp := &streamParser{p: &page{status: 200}}
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			if err := sp.line(sc.Bytes()); err != nil {
				return nil, err
			}
		}
		return sp.p, nil
	}
	sp, err := parse(body)
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := c.wantFor(0, 1, sp.gen)
	if err := checkPage(sp, w1, -1, 40); err != nil {
		t.Fatalf("real stream rejected: %v", err)
	}
	cut := body[:bytes.LastIndexByte(body[:len(body)-1], '\n')+1]
	tp, err := parse(cut)
	if err != nil {
		t.Fatal(err)
	}
	if checkPage(tp, w1, -1, 40) == nil {
		t.Error("a stream without its trailer was accepted")
	}
	// Dropping a chunk line leaves the trailer disagreeing with it.
	lines := bytes.SplitAfter(body, []byte("\n"))
	dropped := bytes.Join(append(append([][]byte{}, lines[:1]...), lines[2:]...), nil)
	if _, err := parse(dropped); err == nil {
		t.Error("a stream missing a chunk was accepted")
	}
}

// A read sent with asof must be answered from that generation. A
// daemon that ignored asof is caught even when the generation it used
// has the same answer: here the real page is relabelled as the next
// generation, which a one-state cycle maps to the same expected nodes.
func TestOracleRejectsAsofAnsweredFromAnotherGeneration(t *testing.T) {
	srv, or, gen0, wl, docs := oracleFixture(t)
	g := []byte(`"gen":` + strconv.FormatUint(gen0[0], 10))
	lie := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Post(srv.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), 500)
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if !bytes.Contains(raw, g) {
			http.Error(w, "no gen in "+string(raw), 500)
			return
		}
		_, _ = w.Write(bytes.Replace(raw, g, []byte(`"gen":`+strconv.FormatUint(gen0[0]+1, 10)), 1))
	}))
	defer lie.Close()
	op := Op{Kind: kindPage, Limit: 10}
	body := queryBody{Doc: "d", Query: wl.queries[0], Limit: 10, AsOf: gen0[0]}
	for _, c := range []struct {
		name, url string
		ok        bool
	}{{"real", srv.URL, true}, {"relabelled", lie.URL, false}} {
		cl := newClient(c.url, newHTTPClient(1), wl, docs, or, gen0)
		s, _ := cl.read(op, body, time.Now(), -1)
		if s.ok != c.ok || s.wrong == c.ok {
			t.Errorf("%s page: ok=%v wrong=%v (%s), want ok=%v", c.name, s.ok, s.wrong, s.err, c.ok)
		}
	}
}

// The same seed produces a byte-identical request sequence; another
// seed does not.
func TestSameSeedSameRequestSequence(t *testing.T) {
	for _, name := range workloadNames {
		wl := workloads[name]
		a := streamBytes(opStream(wl, 3, 42, "timed", 2000))
		b := streamBytes(opStream(wl, 3, 42, "timed", 2000))
		c := streamBytes(opStream(wl, 3, 43, "timed", 2000))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 gave two different request sequences", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same request sequence", name)
		}
	}
}

// Layer self times plus the unattributed residual add up to the round
// trip, including when separately timed children overrun a parent.
func TestDecompositionAddsUp(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Req: 1, Name: "http", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Req: 1, Name: "serve", Start: 100, End: 900},
		{ID: 3, Parent: 2, Req: 1, Name: "eval", Start: 2000, End: 2500},
		{ID: 4, Parent: 3, Req: 1, Name: "run", Start: 3000, End: 3600}, // overruns eval
		{ID: 5, Parent: 0, Req: 1, Name: "ref.splice_succinct", Start: 4000, End: 4100},
	}
	dc := decompose(spans)
	if dc.requests != 1 || dc.e2e != 1000 {
		t.Fatalf("requests %d e2e %v", dc.requests, dc.e2e)
	}
	self := 0.0
	for _, v := range dc.self {
		self += v
	}
	if math.Abs(self+dc.unattributed-dc.e2e) > 1e-9 {
		t.Errorf("self %v + unattributed %v != e2e %v", self, dc.unattributed, dc.e2e)
	}
	if dc.self["eval"] != 0 || dc.unattributed != -100 {
		t.Errorf("eval self %v unattributed %v, want 0 and -100", dc.self["eval"], dc.unattributed)
	}
	if _, ok := dc.self["ref.splice_succinct"]; ok {
		t.Error("a reference span outside the request counted in its decomposition")
	}
}

// streamBytes is the canonical encoding of an op sequence.
func streamBytes(ops []Op) []byte {
	b, err := json.Marshal(ops)
	if err != nil {
		panic(err)
	}
	return b
}
