package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// The traced mode replays the timed phase's request stream in-process,
// sequentially on one connection, in three passes over the same ops:
//
//	A  HTTP, untraced: the baseline for trace.overhead_frac;
//	B  HTTP, traced: an "http" span per request (client round trip)
//	   and, from a wrapper around the service handler, a "serve" span
//	   (ServeHTTP); /stats is scraped around this pass;
//	C  outside-in: for each request of B, the harness calls each
//	   layer's public functions itself and records one span per call,
//	   parented to B's spans of the same request. On a workload with
//	   patches, C replays them on a private store with a service of its
//	   own, so its service calls meet a new generation (and its
//	   recompile) where B's did, and asof reads go to the generation
//	   as many patches back as B's went.
//
// A span's self time is its duration minus its children's durations,
// clamped at zero; trace.unattributed_us is the round trip minus every
// self time of the request, so the layer self times plus it equal the
// traced end-to-end time exactly.

// span is one timed call. Req identifies the replayed request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Nodes is how many answer nodes a "next" span delivered.
	Nodes int `json:"nodes,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	last  int64
	spans []span
}

// reserve, put and add are no-ops on a nil recorder (the replay's
// untimed warm-up pass).
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	return r.last
}

// put records span id (from reserve) of request req.
func (r *recorder) put(id, req, parent int64, name string, start, end time.Time, nodes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Nodes: nodes})
}

// add records a span that has just ended.
func (r *recorder) add(req, parent int64, name string, start time.Time, nodes int) int64 {
	id := r.reserve()
	r.put(id, req, parent, name, start, time.Now(), nodes)
	return id
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanHeader carries "req/parent" from the client to the serve wrapper.
const spanHeader = "X-Bench-Span"

// serveSpans wraps the service handler, recording ServeHTTP as a
// "serve" span under the request's http span.
type serveSpans struct {
	next http.Handler
	rec  *recorder
}

func (h serveSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqS, parentS, ok := strings.Cut(r.Header.Get(spanHeader), "/")
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	req, _ := strconv.ParseInt(reqS, 10, 64)
	parent, _ := strconv.ParseInt(parentS, 10, 64)
	h.rec.add(req, parent, "serve", start, 0)
}

// layerMetrics maps span names to the per-layer self-time metrics;
// scale converts nanoseconds to the metric's unit.
var layerMetrics = []struct {
	span, metric, unit string
	scale              float64
}{
	{"http", "service.wire_us", "us", 1e-3},
	{"serve", "service.codec_us", "us", 1e-3},
	{"eval", "service.eval_self_us", "us", 1e-3},
	{"route", "shard.route_ns", "ns", 1},
	{"get", "store.get_ns", "ns", 1},
	{"parse", "xpath.parse_us", "us", 1e-3},
	{"compile", "compile.miss_us", "us", 1e-3},
	{"run", "engine.run_us", "us", 1e-3},
	{"seek", "core.seek_us", "us", 1e-3},
	{"next", "core.next_us", "us", 1e-3},
	{"frag", "xmlparse.frag_us", "us", 1e-3},
	{"store.patch", "store.patch_us", "us", 1e-3},
	{"tree.apply", "tree.apply_us", "us", 1e-3},
	{"index.apply", "index.apply_us", "us", 1e-3},
}

// decomposition is what the spans say about the traced requests.
type decomposition struct {
	requests int
	// self sums each span name's self time (ns) over the requests.
	self map[string]float64
	// e2e and unattributed sum the round trips and their residuals (ns).
	e2e, unattributed float64
}

// decompose derives self times from the spans. Only spans reachable
// from a request's "http" root count; a child's duration is deducted
// from its parent's even when the child was timed in a separate call.
func decompose(spans []span) decomposition {
	dc := decomposition{self: map[string]float64{}}
	kids := map[int64][]int{}
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	for i, root := range spans {
		if root.Name != "http" || root.Parent != 0 {
			continue
		}
		dc.requests++
		dc.e2e += root.dur()
		selfSum := 0.0
		stack := []int{i}
		for len(stack) > 0 {
			s := spans[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			self := s.dur()
			for _, k := range kids[s.ID] {
				self -= spans[k].dur()
				stack = append(stack, k)
			}
			if self < 0 {
				self = 0
			}
			dc.self[s.Name] += self
			selfSum += self
		}
		dc.unattributed += root.dur() - selfSum
	}
	return dc
}

// lastWrite keeps a stream's last line (its trailer): Stream writes
// each NDJSON line with one Write.
type lastWrite struct{ last []byte }

func (w *lastWrite) Write(p []byte) (int, error) {
	w.last = append(w.last[:0], p...)
	return len(p), nil
}

// tracedReq is one HTTP request of pass B: its request and serve span
// ids, and for a read the generation it asked for (0: latest).
type tracedReq struct {
	req, serve int64
	asof       uint64
}

// layerReplay is pass C: the outside-in calls into each layer.
type layerReplay struct {
	rec *recorder
	// svc is the service pass C calls: xpqd's in-process twin, or on
	// patched workloads one over pst.
	svc  *service.Service
	wl   *workload
	docs []*docSpec
	// caches mirror the service's per-shard compiled-query LRUs, so the
	// replayed engines miss where the daemon's do.
	caches  []*qcache.Cache
	engines map[string]*core.Engine
	// st is the store the core layers are replayed on: the daemon's
	// twin's, or on patched workloads pst.
	st *shard.Store
	// Private copies for the patch layers: a store advancing through
	// the same cycle, and each state's index and BP view.
	pst     *shard.Store
	ix      [][]*index.Index
	succ    [][]*tree.Succinct
	patched []int
	// gens[doc][k] is pst's generation after k recorded patches. asofAt
	// gives, per op, the patch count whose generation its first page
	// reads (-1: latest); lastUse[doc][k] is the last op that reads
	// generation k, which stays pinned until then.
	gens    [][]store.Gen
	asofAt  []int
	lastUse []map[int]int

	runs, visited, selected, jumps, memoHits, memoEntries int
	decisions, explorations                               uint64
	nextNodes                                             int
}

func newLayerReplay(rec *recorder, st *shard.Store, svc *service.Service, wl *workload, docs []*docSpec) (*layerReplay, error) {
	lr := &layerReplay{rec: rec, st: st, svc: svc, wl: wl, docs: docs,
		engines: map[string]*core.Engine{}, patched: make([]int, len(docs))}
	for i := 0; i < st.NumShards(); i++ {
		lr.caches = append(lr.caches, qcache.New(qcache.DefaultCapacity))
	}
	if wl.patchCycle {
		lr.pst = shard.NewStore(st.NumShards())
		lr.st, lr.svc = lr.pst, newService(lr.pst, wl)
		for _, d := range docs {
			h, err := lr.pst.Add(d.id, d.states[0], store.SourceDirect)
			if err != nil {
				return nil, err
			}
			lr.gens = append(lr.gens, []store.Gen{h.Gen})
			var ixs []*index.Index
			var sus []*tree.Succinct
			for _, s := range d.states {
				ixs = append(ixs, index.New(s))
				sus = append(sus, tree.NewSuccinct(s))
			}
			lr.ix, lr.succ = append(lr.ix, ixs), append(lr.succ, sus)
		}
	}
	return lr, nil
}

// engine returns the replay's engine for one document generation.
func (lr *layerReplay) engine(shardIdx int, h *store.Handle) *core.Engine {
	key := h.ID + "\x00" + h.Gen.String()
	if e, ok := lr.engines[key]; ok {
		return e
	}
	if len(lr.engines) >= 256 {
		for k, e := range lr.engines {
			lr.retire(e)
			delete(lr.engines, k)
		}
	}
	e := core.NewWithIndex(h.Doc, h.Index, lr.caches[shardIdx], key+"\x00")
	e.ConfigureAuto(core.DefaultAutoConfig())
	lr.engines[key] = e
	return e
}

// retire folds an engine's Auto selector counters into the totals.
func (lr *layerReplay) retire(e *core.Engine) {
	s := e.SelectorStats()
	lr.decisions += s.Decisions
	lr.explorations += s.Explorations
}

// session replays op i's requests; reqs are B's requests of the op,
// in order.
func (lr *layerReplay) session(i int, op Op, reqs []tracedReq) error {
	if op.Kind == kindPatch {
		if len(reqs) == 0 {
			return nil
		}
		return lr.patch(op, reqs[0])
	}
	d := lr.docs[op.Doc]
	req := service.Request{Doc: d.id, Query: lr.wl.queries[op.Query], Limit: op.Limit}
	var gen store.Gen
	if lr.rec != nil && lr.asofAt != nil && lr.asofAt[i] >= 0 {
		k := lr.asofAt[i]
		req.AsOf, gen = lr.gens[op.Doc][k], lr.gens[op.Doc][k]
		if lr.lastUse[op.Doc][k] == i {
			defer lr.unpin(d.id, gen)
		}
	}
	after := int32(-1)
	for _, r := range reqs {
		next, last, g, err := lr.page(op, req, after, gen, r)
		if err != nil {
			return err
		}
		if next == "" {
			return nil
		}
		req.Cursor, req.AsOf, after, gen = next, 0, last, g
	}
	return nil
}

// pin keeps a generation of pst readable until unpin.
func (lr *layerReplay) pin(id string, gen store.Gen) error {
	return lr.pst.Part(lr.pst.ShardFor(id)).Pin(id, gen)
}

func (lr *layerReplay) unpin(id string, gen store.Gen) {
	lr.pst.Part(lr.pst.ShardFor(id)).Unpin(id, gen)
}

// page replays one page: the service call, then the core layers.
// gen pins the core replay to a generation (0: latest); the core
// replay's generation is returned for the next page.
func (lr *layerReplay) page(op Op, req service.Request, after int32, gen store.Gen, r tracedReq) (string, int32, store.Gen, error) {
	reqID, serveID := r.req, r.serve
	start := time.Now()
	var next string
	if op.Kind == kindStream {
		w := &lastWrite{}
		if pre := lr.svc.Stream(w, req, service.DefaultStreamChunk); pre != nil {
			return "", 0, 0, fmt.Errorf("replay: %s %q: %s", req.Doc, req.Query, pre.Err)
		}
		var tr service.StreamTrailer
		if err := json.Unmarshal(w.last, &tr); err != nil {
			return "", 0, 0, fmt.Errorf("replay: stream trailer: %w", err)
		}
		next = tr.Cursor
	} else {
		resp := lr.svc.Eval(req)
		if resp.Err != "" {
			return "", 0, 0, fmt.Errorf("replay: %s %q: %s", req.Doc, req.Query, resp.Err)
		}
		next = resp.Next
	}
	evalID := lr.rec.add(reqID, serveID, "eval", start, 0)

	t := time.Now()
	si := lr.st.ShardFor(req.Doc)
	lr.rec.add(reqID, evalID, "route", t, 0)
	part := lr.st.Part(si)
	t = time.Now()
	var h *store.Handle
	var err error
	if gen == 0 {
		var ok bool
		if h, ok = part.Get(req.Doc); !ok {
			err = store.ErrNotFound
		}
	} else {
		h, err = part.GetAsOf(req.Doc, gen)
	}
	lr.rec.add(reqID, evalID, "get", t, 0)
	if err != nil {
		return "", 0, 0, fmt.Errorf("replay: %s: %w", req.Doc, err)
	}
	eng := lr.engine(si, h)
	runID := lr.rec.reserve()
	t = time.Now()
	if _, err := xpath.Parse(req.Query); err != nil {
		return "", 0, 0, err
	}
	lr.rec.add(reqID, runID, "parse", t, 0)
	t = time.Now()
	cur, err := eng.EvalCursor(req.Query, core.Auto)
	if err != nil {
		return "", 0, 0, err
	}
	count := cur.Count()
	lr.rec.put(runID, reqID, evalID, "run", t, time.Now(), 0)
	defer cur.Close()
	strat := cur.Strategy()
	if !cur.QCacheHit() && (strat == core.Optimized || strat == core.TopDownDet) {
		// The run compiled; time that compilation cold.
		t = time.Now()
		if err := coldCompile(req.Query, h.Doc.Names(), strat); err != nil {
			return "", 0, 0, err
		}
		lr.rec.add(reqID, runID, "compile", t, 0)
	}
	lr.runs++
	lr.visited += cur.Visited()
	lr.selected += count
	lr.jumps += cur.Jumps()
	lr.memoHits += cur.MemoHits()
	lr.memoEntries += cur.MemoEntries()
	if after >= 0 {
		t = time.Now()
		cur.SeekPast(tree.NodeID(after))
		lr.rec.add(reqID, evalID, "seek", t, 0)
	}
	limit := req.Limit
	t = time.Now()
	n, last := 0, int32(-1)
	if op.Kind == kindStream {
		buf := make([]tree.NodeID, service.DefaultStreamChunk)
		for n < limit {
			k := cur.NextBatch(buf[:min(len(buf), limit-n)])
			if k == 0 {
				break
			}
			n += k
			last = int32(buf[k-1])
		}
	} else {
		for n < limit {
			v, ok := cur.Next()
			if !ok {
				break
			}
			n++
			last = int32(v)
		}
	}
	lr.rec.add(reqID, evalID, "next", t, n)
	lr.nextNodes += n
	return next, last, h.Gen, nil
}

// coldCompile compiles query the way a qcache miss of strategy s does.
func coldCompile(query string, names *tree.LabelTable, s core.Strategy) error {
	p, err := xpath.Parse(query)
	if err != nil {
		return err
	}
	if s == core.TopDownDet {
		aut, err := compile.ToTDSTA(p, names)
		if err != nil {
			return err
		}
		aut.MinimizeTopDown()
		return nil
	}
	_, err = compile.ToASTA(p, names)
	return err
}

// patch replays one PATCH's layers on the harness's private copies.
func (lr *layerReplay) patch(op Op, r tracedReq) error {
	reqID, serveID := r.req, r.serve
	d := lr.docs[op.Doc]
	k := lr.patched[op.Doc] % len(d.patches)
	lr.patched[op.Doc]++
	step := d.patches[k]
	pt := step.pt
	if step.XML != "" {
		t := time.Now()
		frag, err := xmlparse.Parse([]byte(step.XML))
		if err != nil {
			return err
		}
		lr.rec.add(reqID, serveID, "frag", t, 0)
		pt.Frag = frag
	}
	patchID := lr.rec.reserve()
	t := time.Now()
	h, err := lr.pst.Patch(d.id, 0, pt)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	lr.rec.put(patchID, reqID, serveID, "store.patch", t, time.Now(), 0)
	lr.gens[op.Doc] = append(lr.gens[op.Doc], h.Gen)
	if _, ok := lr.lastUse[op.Doc][len(lr.gens[op.Doc])-1]; ok {
		if err := lr.pin(d.id, h.Gen); err != nil {
			return err
		}
	}
	t = time.Now()
	nd, dl, err := d.states[k].Apply(pt)
	if err != nil {
		return err
	}
	lr.rec.add(reqID, patchID, "tree.apply", t, 0)
	t = time.Now()
	index.Apply(lr.ix[op.Doc][k], nd, dl)
	lr.rec.add(reqID, patchID, "index.apply", t, 0)
	// The daemon's store splices the BP view only when the parent
	// generation built one, which no serving path does: time it as a
	// reference, outside the request's decomposition.
	t = time.Now()
	tree.SpliceSuccinct(lr.succ[op.Doc][k], nd, dl)
	lr.rec.add(reqID, 0, "ref.splice_succinct", t, 0)
	return nil
}

// newService builds the service as xpqd does with default flags and
// the workload's.
func newService(st *shard.Store, wl *workload) *service.Service {
	return service.New(st, service.Options{
		SlowQuery: 100 * time.Millisecond,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		CursorTTL: wl.cursorTTL,
	})
}

// runTraced is the traced mode (see the comment at the top).
func runTraced(cfg config, wl *workload, docs []*docSpec, or *oracle, inputBytes int64, dir string) (*report, map[string]any, error) {
	m := map[string]metric{}
	st := shard.NewStore(runtime.GOMAXPROCS(0))
	var opens []float64
	var loadS float64
	if wl.mapped {
		// xpqd's -mmap opens a directory's files in name order.
		sorted := append([]*docSpec(nil), docs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].file < sorted[j].file })
		docs := sorted
		for _, d := range docs {
			t := time.Now()
			if _, _, _, _, err := store.OpenXQO2(d.file); err != nil {
				return nil, nil, err
			}
			opens = append(opens, ms(time.Since(t)))
		}
		st.SetResidentBudget(wl.residentBudget(inputBytes))
		for _, d := range docs {
			if _, err := st.LoadMapped(d.id, d.file); err != nil {
				return nil, nil, err
			}
		}
	} else {
		for _, d := range docs {
			src, err := os.ReadFile(d.file)
			if err != nil {
				return nil, nil, err
			}
			t := time.Now()
			if _, err := xmlparse.Parse(src); err != nil {
				return nil, nil, err
			}
			loadS += time.Since(t).Seconds()
			if _, err := st.LoadXMLFile(d.id, d.file); err != nil {
				return nil, nil, err
			}
		}
	}
	m["store.open_ms"] = metric{Value: mean(opens), Unit: "ms", n: len(opens)}
	m["xmlparse.load_s"] = metric{Value: loadS, Unit: "s", n: len(docs)}

	svc := newService(st, wl)
	rec := &recorder{t0: time.Now()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{
		Handler:           serveSpans{service.NewHandler(svc, service.HandlerOptions{StreamChunk: service.DefaultStreamChunk}), rec},
		ReadHeaderTimeout: 10 * time.Second,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	hc := newHTTPClient(1)
	gen0, err := docGens(hc, base, docs)
	if err != nil {
		return nil, nil, err
	}
	cl := newClient(base, hc, wl, docs, or, gen0)

	// Warm up as the timed mode does; passes A and B replay the first
	// third of the timed phase's ops at their due times on one
	// connection, and pass C the same ops.
	warm := openLoop(opStream(wl, len(docs), cfg.seed, "warm", int(wl.rate*warmPhase.Seconds())), 1, cl.session)
	ops := opStream(wl, len(docs), cfg.seed, "timed", int(wl.rate*float64(cfg.seconds)/3))
	n := len(ops)
	passA := openLoop(ops, 1, cl.session).samples

	st0, err := scrapeStats(hc, base)
	if err != nil {
		return nil, nil, err
	}
	pages := make([][]tracedReq, n)
	patched0 := append([]int(nil), cl.patched...)
	var cur int
	var reqSeq int64
	cl.hook = func(r *http.Request) func() {
		reqSeq++
		req, httpID := reqSeq, rec.reserve()
		r.Header.Set(spanHeader, strconv.FormatInt(req, 10)+"/"+strconv.FormatInt(httpID, 10))
		start := time.Now()
		return func() {
			rec.put(httpID, req, 0, "http", start, time.Now(), 0)
			pages[cur] = append(pages[cur], tracedReq{req: req})
		}
	}
	// One connection runs the ops in order, so cur is the op's index.
	cur = -1
	passB := openLoop(ops, 1, func(op Op, due time.Time) []sample {
		cur++
		ss := cl.session(op, due)
		for j, s := range ss {
			pages[cur][j].asof = s.asof
		}
		return ss
	}).samples
	cl.hook = nil
	tally := map[string]int{}
	for _, s := range passB {
		if s.ok && s.class != classPatch {
			tally[s.strategy]++
		}
	}
	st1, err := scrapeStats(hc, base)
	if err != nil {
		return nil, nil, err
	}
	// Pair each request with its serve span.
	serveOf := map[int64]int64{}
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Name == "serve" {
			serveOf[s.Req] = s.ID
		}
	}
	rec.mu.Unlock()
	for i := range pages {
		for j := range pages[i] {
			pages[i][j].serve = serveOf[pages[i][j].req]
		}
	}

	// Pass C runs twice: untimed to warm the replay's own engines and
	// caches as pass A warmed the daemon's, then recorded. The patch
	// copies advance only in the recorded pass.
	lr, err := newLayerReplay(rec, st, svc, wl, docs)
	if err != nil {
		return nil, nil, err
	}
	if lr.pst != nil {
		// An asof read of B went k patches into B's share of the cycle;
		// C's reads the generation k patches into its own (k = 0 for a
		// generation from before B).
		lr.asofAt = make([]int, n)
		lr.lastUse = make([]map[int]int, len(docs))
		for d := range docs {
			lr.lastUse[d] = map[int]int{}
		}
		seen := make([]int, len(docs))
		for i, op := range ops {
			lr.asofAt[i] = -1
			if op.Kind == kindPatch {
				seen[op.Doc]++
				continue
			}
			if len(pages[i]) == 0 || pages[i][0].asof == 0 {
				continue
			}
			k := int(pages[i][0].asof-gen0[op.Doc]) - patched0[op.Doc]
			k = min(max(k, 0), seen[op.Doc])
			lr.asofAt[i], lr.lastUse[op.Doc][k] = k, i
		}
		for d := range docs {
			if _, ok := lr.lastUse[d][0]; ok {
				if err := lr.pin(docs[d].id, lr.gens[d][0]); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	for _, r := range []*recorder{nil, rec} {
		lr.rec = r
		for i := 0; i < n; i++ {
			if ops[i].Kind == kindPatch && r == nil {
				continue
			}
			if err := lr.session(i, ops[i], pages[i]); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, e := range lr.engines {
		lr.retire(e)
	}

	dc := decompose(rec.spans)
	nreq := float64(dc.requests)
	for _, l := range layerMetrics {
		m[l.metric] = metric{Value: dc.self[l.span] * l.scale / nreq, Unit: l.unit, n: dc.requests}
	}
	m["trace.e2e_us"] = metric{Value: dc.e2e / 1e3 / nreq, Unit: "us", n: dc.requests}
	m["trace.unattributed_us"] = metric{Value: dc.unattributed / 1e3 / nreq, Unit: "us", n: dc.requests}
	var latA, latB []float64
	for _, s := range passA {
		latA = append(latA, ms(s.latency))
	}
	for _, s := range passB {
		latB = append(latB, ms(s.latency))
	}
	m["trace.overhead_frac"] = metric{Value: ratio(median(latB), median(latA)) - 1, Unit: "ratio", n: len(latB)}

	// compile.cold_us: every (document, query) pair compiled cold.
	var compiles []float64
	for _, d := range docs {
		for _, q := range wl.queries {
			t := time.Now()
			if err := coldCompile(q, d.states[0].Names(), core.Optimized); err != nil {
				return nil, nil, err
			}
			compiles = append(compiles, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	var splices []float64
	var nextNS float64
	for _, s := range rec.spans {
		switch s.Name {
		case "ref.splice_succinct":
			splices = append(splices, s.dur()/1e3)
		case "next":
			nextNS += s.dur()
		}
	}
	m["compile.cold_us"] = metric{Value: mean(compiles), Unit: "us", n: len(compiles)}
	m["tree.splice_succinct_us"] = metric{Value: mean(splices), Unit: "us", n: len(splices)}
	m["core.next_ns_per_node"] = metric{Value: ratio(nextNS, float64(lr.nextNodes)), Unit: "ns", n: lr.nextNodes}
	m["engine.visited_per_selected"] = metric{Value: ratio(float64(lr.visited), float64(lr.selected)), Unit: "ratio", n: lr.runs}
	m["engine.jumps"] = metric{Value: ratio(float64(lr.jumps), float64(lr.runs)), Unit: "count", n: lr.runs}
	m["engine.memo_hit_rate"] = metric{Value: ratio(float64(lr.memoHits), float64(lr.memoHits+lr.memoEntries)), Unit: "ratio", n: lr.runs}
	m["core.auto_explore_frac"] = metric{Value: ratio(float64(lr.explorations), float64(lr.decisions)), Unit: "ratio", n: int(lr.decisions)}
	for _, s := range []string{"optimized", "hybrid", "topdown-det"} {
		m["core.auto_wins."+s] = metric{Value: float64(tally[s]), Unit: "count", n: len(passB)}
	}
	deltas := statsDeltas(st0, st1)
	for _, k := range []string{"qcache.hit_rate", "qcache.evictions", "service.lock_wait_us", "core.ctxpool_hit_rate", "store.map_faults", "store.charged_frac", "store.live_gens"} {
		m[k] = deltas[k]
	}
	if err := rec.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, nil, err
	}

	rep := &report{Metrics: m}
	wrong := countFailures(rep, warm.samples, passA, passB)
	rep.Correct = wrong == 0
	sumSelf := 0.0
	for _, l := range layerMetrics {
		sumSelf += dc.self[l.span]
	}
	fmt.Printf("info   decomposition: %d requests, e2e %.2fus = layer self times %.2fus + unattributed %.2fus per request\n",
		dc.requests, dc.e2e/1e3/nreq, sumSelf/1e3/nreq, dc.unattributed/1e3/nreq)
	prov := map[string]any{
		"mode":            "traced",
		"replayed_ops":    n,
		"traced_requests": dc.requests,
		"spans":           len(rec.spans),
		"spans_file":      filepath.Join(dir, "spans.jsonl"),
		"xpqd_gomaxprocs": len(st1.Shards),
		"strategy_mix":    tally,
		"connections":     1,
	}
	return rep, prov, nil
}
