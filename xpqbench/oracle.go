package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/stepwise"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// The answer oracle: every expected answer is computed before timing
// starts, in-process, with the step-wise baseline on the harness's own
// copy of each document state. Responses are checked against it:
// status, count, the page's node ids, continuity from page to page and
// the concatenation of stream chunks.

func evalStepwise(d *tree.Document, p *xpath.Path) []int32 {
	res := stepwise.Eval(d, p, stepwise.Default())
	out := make([]int32, len(res.Selected))
	for i, v := range res.Selected {
		out[i] = int32(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracle holds want[doc][state][query], each a sorted node-id list.
type oracle struct {
	want [][][][]int32
}

func buildOracle(docs []*docSpec, queries []string) (*oracle, error) {
	paths := make([]*xpath.Path, len(queries))
	for i, q := range queries {
		p, err := xpath.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", q, err)
		}
		paths[i] = p
	}
	o := &oracle{want: make([][][][]int32, len(docs))}
	for di, d := range docs {
		for _, st := range d.states {
			row := make([][]int32, len(paths))
			for qi, p := range paths {
				row[qi] = evalStepwise(st, p)
			}
			o.want[di] = append(o.want[di], row)
		}
		// The cycle must close: the last patch returns to states[0].
		if n := len(d.states); n > 1 {
			back, _, err := d.states[n-1].Apply(d.patches[n-1].pt)
			if err != nil {
				return nil, fmt.Errorf("%s: closing patch: %w", d.id, err)
			}
			for qi, p := range paths {
				if !equalIDs(evalStepwise(back, p), o.want[di][0][qi]) {
					return nil, fmt.Errorf("%s: patch cycle does not return to its first state", d.id)
				}
			}
		}
	}
	return o, nil
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// page is one delivered page or stream as the client saw it.
type page struct {
	status   int
	gen      uint64
	count    int
	strategy string
	nodes    []int32
	next     string
	// done is false for a stream that ended without its trailer.
	done bool
}

// checkPage verifies one page against the expected answer want, given
// the node the previous page ended at (after < 0 for a first page) and
// the page limit.
func checkPage(p *page, want []int32, after int32, limit int) error {
	if p.status != 200 {
		return fmt.Errorf("status %d", p.status)
	}
	if !p.done {
		return fmt.Errorf("stream truncated (no trailer)")
	}
	if p.count != len(want) {
		return fmt.Errorf("count %d, want %d", p.count, len(want))
	}
	off := 0
	if after >= 0 {
		off = sort.Search(len(want), func(i int) bool { return want[i] > after })
	}
	end := len(want)
	if off+limit < end {
		end = off + limit
	}
	if !equalIDs(p.nodes, want[off:end]) {
		return fmt.Errorf("page nodes differ from the expected answer at offset %d (%d nodes, want %d)", off, len(p.nodes), end-off)
	}
	if more := end < len(want); more != (p.next != "") {
		return fmt.Errorf("continuation token present=%v, want %v", p.next != "", more)
	}
	return nil
}

// splitNodes appends the ids of the first "nodes":[...] array of a JSON
// object to dst without a reflective decode (it runs on every page, on
// the CPUs xpqd needs), and returns the object with that array emptied
// (sharing b's storage only when there is no array).
func splitNodes(dst []int32, b []byte) ([]int32, []byte, error) {
	key := []byte(`"nodes":[`)
	i := bytes.Index(b, key)
	if i < 0 {
		return dst, b, nil
	}
	start := i + len(key)
	j := bytes.IndexByte(b[start:], ']')
	if j < 0 {
		return dst, nil, fmt.Errorf("unterminated nodes array")
	}
	raw := b[start : start+j]
	if len(raw) > 0 {
		v, digits := int64(0), 0
		for k := 0; k <= len(raw); k++ {
			if k == len(raw) || raw[k] == ',' {
				if digits == 0 {
					return dst, nil, fmt.Errorf("malformed nodes array")
				}
				dst = append(dst, int32(v))
				v, digits = 0, 0
				continue
			}
			c := raw[k]
			if c < '0' || c > '9' || digits > 10 {
				return dst, nil, fmt.Errorf("malformed node id")
			}
			v = v*10 + int64(c-'0')
			digits++
		}
	}
	rest := make([]byte, 0, len(b)-j)
	rest = append(rest, b[:start]...)
	rest = append(rest, b[start+j:]...)
	return dst, rest, nil
}

// queryResponse is the part of a /query response (or stream header)
// the oracle reads.
type queryResponse struct {
	Gen      json.Number `json:"gen"`
	Count    int         `json:"count"`
	Strategy string      `json:"strategy"`
	Next     string      `json:"next"`
	Err      string      `json:"error"`
}

// parseQueryBody decodes a POST /query response body, appending its
// node ids to nodes.
func parseQueryBody(status int, body []byte, nodes []int32) (*page, error) {
	p := &page{status: status, done: true}
	if status != 200 {
		return p, nil
	}
	ids, rest, err := splitNodes(nodes, body)
	if err != nil {
		return nil, err
	}
	var r queryResponse
	if err := json.Unmarshal(rest, &r); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	p.nodes, p.count, p.strategy, p.next = ids, r.Count, r.Strategy, r.Next
	p.gen, err = parseGen(r.Gen)
	return p, err
}

func parseGen(n json.Number) (uint64, error) {
	if n == "" {
		return 0, nil
	}
	return strconv.ParseUint(string(n), 10, 64)
}

// streamParser consumes a /query/stream body line by line.
type streamParser struct {
	p       *page
	lines   int
	trailer bool
}

type streamTrailer struct {
	Done   bool   `json:"done"`
	Chunks int    `json:"chunks"`
	Nodes  int    `json:"nodes"`
	Cursor string `json:"cursor"`
	Err    string `json:"error"`
}

// line feeds one NDJSON line; the first is the header, the last the
// trailer, the rest chunks.
func (sp *streamParser) line(b []byte) error {
	sp.lines++
	if sp.trailer {
		return fmt.Errorf("data after the stream trailer")
	}
	if sp.lines == 1 {
		var h queryResponse
		if err := json.Unmarshal(b, &h); err != nil {
			return fmt.Errorf("stream header: %w", err)
		}
		g, err := parseGen(h.Gen)
		sp.p.gen, sp.p.count, sp.p.strategy = g, h.Count, h.Strategy
		return err
	}
	if bytes.HasPrefix(b, []byte(`{"nodes":`)) {
		var err error
		sp.p.nodes, _, err = splitNodes(sp.p.nodes, b)
		return err
	}
	var t streamTrailer
	if err := json.Unmarshal(b, &t); err != nil {
		return fmt.Errorf("stream trailer: %w", err)
	}
	if !t.Done || t.Err != "" || t.Nodes != len(sp.p.nodes) || t.Chunks != sp.lines-2 {
		return fmt.Errorf("stream trailer disagrees with the chunks (done=%v nodes=%d chunks=%d err=%q)", t.Done, t.Nodes, t.Chunks, t.Err)
	}
	sp.trailer = true
	sp.p.done = true
	sp.p.next = t.Cursor
	return nil
}
