package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Sample classes.
const (
	classRead   = "read"   // first page
	classResume = "resume" // continuation page sent with a cursor
	classPatch  = "patch"
)

// sample is one HTTP request's outcome. Latency counts from the time
// the request was due, not from when it was sent.
type sample struct {
	class  string
	stream bool
	ok     bool
	// wrong marks an answer the oracle rejected (or a broken protocol
	// exchange); a request that was refused or failed is !ok only.
	wrong    bool
	err      string
	due      time.Time
	latency  time.Duration
	ttfb     time.Duration // streams: due to first chunk line
	strategy string
	// asof is the generation a read asked for (0: latest).
	asof uint64
}

// client runs a workload's sessions against one xpqd and checks every
// answer against the oracle.
type client struct {
	base string
	hc   *http.Client
	wl   *workload
	docs []*docSpec
	or   *oracle
	// gen0 is each document's generation when the run started; the
	// k-th patch publishes gen0+k+1, so (gen-gen0) mod len(states) is
	// the state a response must match.
	gen0 []uint64

	// writers serializes each document's patches (one writer per
	// document); patched counts the patches applied under it.
	writers []sync.Mutex
	patched []int
	// inflight keeps a document's PATCH from overlapping a read of the
	// same document: reads share it, a patch holds it alone. xpqd hands
	// out a next token without a lease when a patch retires the page's
	// generation mid-request, and the token's resume then fails with
	// 410 (see README.md); a run's failure count must not depend on
	// such timing.
	inflight []sync.RWMutex

	// hook, when set, wraps every HTTP request: it is called before the
	// request is sent and its result once the response body is read
	// (the traced replay records its spans here).
	hook func(*http.Request) func()

	mu sync.Mutex
	// held is, per document, the generation of the latest abandoned
	// cursor and when the request that issued it was sent: its lease
	// keeps that generation readable, so asof reads target it.
	held []heldCursor
}

type heldCursor struct {
	gen uint64
	at  time.Time
}

func newClient(base string, hc *http.Client, wl *workload, docs []*docSpec, or *oracle, gen0 []uint64) *client {
	return &client{
		base: base, hc: hc, wl: wl, docs: docs, or: or, gen0: gen0,
		writers:  make([]sync.Mutex, len(docs)),
		patched:  make([]int, len(docs)),
		inflight: make([]sync.RWMutex, len(docs)),
		held:     make([]heldCursor, len(docs)),
	}
}

// newHTTPClient pools at most conns connections to xpqd.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// begin runs the hook for req and returns its completion, a no-op
// without a hook.
func (c *client) begin(req *http.Request) func() {
	if c.hook == nil {
		return func() {}
	}
	return c.hook(req)
}

// wantFor returns the expected answer of (doc, query) at generation gen.
func (c *client) wantFor(doc, query int, gen uint64) ([]int32, error) {
	if gen < c.gen0[doc] {
		return nil, fmt.Errorf("generation %d predates the run's first generation %d", gen, c.gen0[doc])
	}
	states := c.or.want[doc]
	return states[(gen-c.gen0[doc])%uint64(len(states))][query], nil
}

type queryBody struct {
	Doc    string `json:"doc"`
	Query  string `json:"query"`
	Limit  int    `json:"limit,omitempty"`
	Cursor string `json:"cursor,omitempty"`
	AsOf   uint64 `json:"asof,omitempty"`
}

// session runs one op: a patch, or a read session (first page plus
// the continuation pages it follows). due is when the op fell due.
func (c *client) session(op Op, due time.Time) []sample {
	if op.Kind == kindPatch {
		return []sample{c.patch(op, due)}
	}
	d := c.docs[op.Doc]
	body := queryBody{Doc: d.id, Query: c.wl.queries[op.Query], Limit: op.Limit}
	if op.AsOf {
		c.mu.Lock()
		h := c.held[op.Doc]
		c.mu.Unlock()
		// A lease lives for the cursor TTL from when xpqd issued the
		// token, which is after h.at; aim well inside it.
		if h.gen != 0 && time.Since(h.at) < c.wl.cursorTTL/10 {
			body.AsOf = h.gen
		}
	}
	var out []sample
	after := int32(-1)
	var gen uint64
	var issued time.Time
	for page := 0; page <= op.Follow; page++ {
		sent := time.Now()
		s, p := c.read(op, body, due, after)
		if page > 0 {
			s.class = classResume
		}
		if s.ok && page > 0 && p.gen != gen {
			s.ok, s.wrong = false, true
			s.err = fmt.Sprintf("resumed page read generation %d, cursor pinned %d", p.gen, gen)
		}
		out = append(out, s)
		if !s.ok || p.next == "" {
			return out
		}
		gen, after, issued = p.gen, p.last, sent
		body.Cursor, body.AsOf = p.next, 0
		due = time.Now()
	}
	// The session abandons its last token; the lease keeps gen alive.
	c.mu.Lock()
	c.held[op.Doc] = heldCursor{gen: gen, at: issued}
	c.mu.Unlock()
	return out
}

// pageEnd is what a session needs of a checked page to continue.
type pageEnd struct {
	gen  uint64
	next string
	last int32
}

// readBuf is a read's reusable storage, so that the client's garbage
// collector competes less with xpqd for the CPUs.
type readBuf struct {
	body  bytes.Buffer
	nodes []int32
}

var readBufs = sync.Pool{New: func() any { return new(readBuf) }}

// read sends one page request and checks the answer.
func (c *client) read(op Op, body queryBody, due time.Time, after int32) (sample, pageEnd) {
	s := sample{class: classRead, stream: op.Kind == kindStream, due: due, asof: body.AsOf}
	b, _ := json.Marshal(body)
	path := "/query"
	if s.stream {
		path = "/query/stream"
	}
	req, _ := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	c.inflight[op.Doc].RLock()
	hookEnd := c.begin(req)
	end := func() { hookEnd(); c.inflight[op.Doc].RUnlock() }
	resp, err := c.hc.Do(req)
	if err != nil {
		end()
		s.err = err.Error()
		return s, pageEnd{}
	}
	defer resp.Body.Close()
	rb := readBufs.Get().(*readBuf)
	defer readBufs.Put(rb)
	var p *page
	if s.stream && resp.StatusCode == 200 {
		p = &page{status: 200, nodes: rb.nodes[:0]}
		sp := &streamParser{p: p}
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for {
			line, rerr := br.ReadSlice('\n')
			if rerr == bufio.ErrBufferFull {
				err = fmt.Errorf("stream line longer than %d bytes", br.Size())
				break
			}
			if len(line) > 0 {
				if sp.lines == 1 {
					s.ttfb = time.Since(due)
				}
				if perr := sp.line(line); perr != nil && err == nil {
					err = perr
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				err = rerr
				break
			}
		}
		s.latency = time.Since(due)
		end()
	} else {
		rb.body.Reset()
		_, rerr := rb.body.ReadFrom(resp.Body)
		s.latency = time.Since(due)
		end()
		raw := rb.body.Bytes()
		if rerr != nil {
			s.err = rerr.Error()
			return s, pageEnd{}
		}
		if resp.StatusCode != 200 {
			s.err = fmt.Sprintf("%s %q: status %d: %s", c.docs[op.Doc].id, body.Query, resp.StatusCode, bytes.TrimSpace(raw))
			return s, pageEnd{}
		}
		p, err = parseQueryBody(resp.StatusCode, raw, rb.nodes[:0])
	}
	if p != nil {
		rb.nodes = p.nodes[:0]
	}
	if err != nil {
		s.err, s.wrong = err.Error(), true
		return s, pageEnd{}
	}
	s.strategy = p.strategy
	want, err := c.wantFor(op.Doc, op.Query, p.gen)
	if err == nil && body.AsOf != 0 && p.gen != body.AsOf {
		err = fmt.Errorf("asof %d answered from generation %d", body.AsOf, p.gen)
	}
	if err == nil {
		err = checkPage(p, want, after, op.Limit)
	}
	if err != nil {
		s.err, s.wrong = fmt.Sprintf("%s %q: %v", c.docs[op.Doc].id, body.Query, err), true
		return s, pageEnd{}
	}
	s.ok = true
	pe := pageEnd{gen: p.gen, next: p.next}
	if len(p.nodes) > 0 {
		pe.last = p.nodes[len(p.nodes)-1]
	}
	return s, pe
}

type patchBody struct {
	Op      string `json:"op"`
	Node    int32  `json:"node"`
	XML     string `json:"xml,omitempty"`
	BaseGen uint64 `json:"base_gen"`
}

// patch applies the document's next cycle step. Patches of one
// document are serialized; a patch that waits for the previous one
// counts the wait in its latency.
func (c *client) patch(op Op, due time.Time) sample {
	s := sample{class: classPatch, due: due}
	d := c.docs[op.Doc]
	c.writers[op.Doc].Lock()
	defer c.writers[op.Doc].Unlock()
	k := c.patched[op.Doc]
	step := d.patches[k%len(d.patches)]
	base := c.gen0[op.Doc] + uint64(k)
	b, _ := json.Marshal(patchBody{Op: step.Op, Node: int32(step.Node), XML: step.XML, BaseGen: base})
	req, _ := http.NewRequest(http.MethodPatch, c.base+"/docs/"+d.id, bytes.NewReader(b))
	c.inflight[op.Doc].Lock()
	hookEnd := c.begin(req)
	end := func() { hookEnd(); c.inflight[op.Doc].Unlock() }
	resp, err := c.hc.Do(req)
	if err != nil {
		end()
		s.err = err.Error()
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(due)
	end()
	if err != nil {
		s.err = err.Error()
		return s
	}
	var ack struct {
		Gen uint64 `json:"gen"`
	}
	if resp.StatusCode != 200 {
		s.err = fmt.Sprintf("patch %s: status %d: %s", d.id, resp.StatusCode, bytes.TrimSpace(raw))
		return s
	}
	if err := json.Unmarshal(raw, &ack); err != nil || ack.Gen != base+1 {
		s.err, s.wrong = fmt.Sprintf("patch %s: acknowledged generation %d, want %d (%v)", d.id, ack.Gen, base+1, err), true
		return s
	}
	c.patched[op.Doc]++
	s.ok = true
	return s
}

// loopResult is what one load phase observed.
type loopResult struct {
	samples []sample
	// lag is, for ops the generator had to wait for, how late it woke
	// past the due time; backlog is how late busy connections made the
	// rest start.
	lag, backlog []float64
	elapsed      time.Duration
	// start and span are the phase's first due time and its scheduled
	// length (the windows of the windowed metrics).
	start time.Time
	span  time.Duration
}

// openLoop sends ops at their due times, counted from the first op's,
// over conns connections. An op due while every connection is busy
// waits client-side, and its latency still counts from its due time
// (no coordinated omission).
func openLoop(ops []Op, conns int, run func(Op, time.Time) []sample) loopResult {
	if len(ops) == 0 {
		return loopResult{start: time.Now()}
	}
	first := ops[0].Due
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	parts := make([]loopResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(part *loopResult) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].Due - first)
				if wait := time.Until(due); wait > 0 {
					sleep(wait)
					part.lag = append(part.lag, ms(time.Since(due)))
				} else {
					part.backlog = append(part.backlog, ms(-wait))
				}
				part.samples = append(part.samples, run(ops[i], due)...)
			}
		}(&parts[w])
	}
	wg.Wait()
	res := mergeLoops(parts, time.Since(start))
	res.start = start
	// Each op owns the interval up to the next one's due time.
	n, last := len(ops), ops[len(ops)-1].Due-first
	res.span = last + last/time.Duration(max(n-1, 1))
	return res
}

// joinSlices joins the open-loop slices of one phase into one result
// whose timeline runs the slices back to back, so that windows over
// the phase cut across all of them.
func joinSlices(slices []loopResult) loopResult {
	var out loopResult
	if len(slices) == 0 {
		return out
	}
	out.start = slices[0].start
	for _, sl := range slices {
		shift := out.start.Add(out.span).Sub(sl.start)
		for _, s := range sl.samples {
			s.due = s.due.Add(shift)
			out.samples = append(out.samples, s)
		}
		out.lag = append(out.lag, sl.lag...)
		out.backlog = append(out.backlog, sl.backlog...)
		out.elapsed += sl.elapsed
		out.span += sl.span
	}
	return out
}

// closedLoop runs ops back to back on conns connections for d, wrapping
// around the op list; each request's latency counts from its send.
func closedLoop(ops []Op, conns int, d time.Duration, run func(Op, time.Time) []sample) loopResult {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	parts := make([]loopResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(part *loopResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(ops)
				part.samples = append(part.samples, run(ops[i], time.Now())...)
			}
		}(&parts[w])
	}
	wg.Wait()
	res := mergeLoops(parts, time.Since(start))
	res.start, res.span = start, d
	return res
}

func mergeLoops(parts []loopResult, elapsed time.Duration) loopResult {
	out := loopResult{elapsed: elapsed}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.lag = append(out.lag, p.lag...)
		out.backlog = append(out.backlog, p.backlog...)
	}
	return out
}

// sleep blocks in nanosleep: the runtime's timers wake sub-millisecond
// sleeps up to a millisecond late, which would add to every latency
// measured from its due time.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
