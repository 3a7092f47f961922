package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/store"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
	"repro/internal/xpath"
)

// Op kinds. A read session is one first page plus the continuation
// pages it follows; a patch is one PATCH /docs/{id}.
const (
	kindPage   = "page"   // POST /query
	kindStream = "stream" // POST /query/stream
	kindPatch  = "patch"  // PATCH /docs/{id}
)

// Op is one scheduled operation of a workload's request stream. Ops
// are generated from the seed alone, so the same seed yields the same
// byte-identical sequence.
type Op struct {
	// Due is the offset from the start of the phase at which the op is
	// due to be sent; latency counts from here.
	Due time.Duration `json:"due_ns"`
	// Kind is kindPage, kindStream or kindPatch.
	Kind string `json:"kind"`
	// Doc and Query index the workload's documents and queries.
	Doc   int `json:"doc"`
	Query int `json:"query,omitempty"`
	// Limit is the page size.
	Limit int `json:"limit,omitempty"`
	// Follow is how many continuation tokens the session follows.
	Follow int `json:"follow,omitempty"`
	// AsOf pins the first page to the generation of a cursor the
	// client still holds (time travel to a previous generation).
	AsOf bool `json:"asof,omitempty"`
}

// workload is one traffic mix: its documents, queries, request mix and
// offered rate.
type workload struct {
	name string
	// rate is the open loop's offered rate, in sessions and patches per
	// second: about a sixth of the capacity_rps measured when the
	// benchmark was introduced (2-vCPU VM, go1.24), see README.md.
	rate float64
	// docs builds the documents from the seed.
	docs func(seed int64) []*docSpec
	// queries are the XPath texts the sessions draw from.
	queries []string
	// mapped writes the documents as XQO2 files served by -mmap
	// instead of XML files loaded by -load.
	mapped bool
	// patchCycle gives every document a cycle of patch states.
	patchCycle bool
	// limit is the page size.
	limit int
	// streamFrac is the share of reads sent to /query/stream.
	streamFrac float64
	// followFrac is the share of paged sessions that follow 1-3 tokens.
	followFrac float64
	// patchFrac is the share of ops that are patches; asofFrac the
	// share of reads pinned to a held cursor's generation.
	patchFrac, asofFrac float64
	// pairZipf draws (document, query) pairs from one zipfian ranking;
	// otherwise documents are zipfian and queries uniform.
	pairZipf bool
	// cursorTTL, when set, is xpqd's -cursor-ttl (and the traced
	// service's CursorTTL).
	cursorTTL time.Duration
	// budgetFrac, when set, is xpqd's -resident-budget as a share of
	// the mapped input bytes.
	budgetFrac float64
}

// residentBudget is the resident budget in bytes for mapped inputs of
// the given size (0: none).
func (wl *workload) residentBudget(mapped int64) int64 {
	return int64(float64(mapped) * wl.budgetFrac)
}

// daemonFlags are the per-workload xpqd flags besides -addr,
// -log-level and the document flags.
func (wl *workload) daemonFlags(mapped int64) []string {
	var out []string
	if wl.cursorTTL > 0 {
		out = append(out, "-cursor-ttl", wl.cursorTTL.String())
	}
	if b := wl.residentBudget(mapped); b > 0 {
		out = append(out, "-resident-budget", strconv.FormatInt(b, 10))
	}
	return out
}

// docSpec is one generated document: the harness's own copy of every
// state its patch cycle visits.
type docSpec struct {
	id string
	// states[k] is the document after k patches of the cycle; the
	// cycle closes (patch len(states)-1 returns to states[0]).
	states []*tree.Document
	// patches[k] turns states[k] into states[(k+1) % len(states)].
	patches []patchStep
	// file is the input file handed to xpqd.
	file string
}

// patchStep is one PATCH of a document's cycle, in wire and in-process
// form.
type patchStep struct {
	Op   string      `json:"op"`
	Node tree.NodeID `json:"node"`
	XML  string      `json:"xml,omitempty"`
	pt   tree.Patch  // the same patch for the harness's own copies
}

var paperQueries = func() []string {
	var qs []string
	for _, q := range xmark.Queries() {
		qs = append(qs, q.XPath)
	}
	return qs
}()

// subSeed derives the seed of the i-th document of a run.
func subSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 + 1 }

func xmarkDocs(seed int64, prefix string, scales ...float64) []*docSpec {
	var out []*docSpec
	for i, sc := range scales {
		d := xmark.Generate(xmark.Config{Scale: sc, Seed: subSeed(seed, i)})
		out = append(out, &docSpec{id: prefix + strconv.Itoa(i), states: []*tree.Document{d}})
	}
	return out
}

// workloads are the benchmark's traffic mixes, by name. DESIGN notes
// for each live in README.md.
var workloads = map[string]*workload{
	"paper-pages": {
		name:       "paper-pages",
		rate:       200,
		docs:       func(seed int64) []*docSpec { return xmarkDocs(seed, "pp", 0.02, 0.05, 0.1) },
		queries:    paperQueries,
		limit:      50,
		streamFrac: 0.5,
		followFrac: 0.25,
		pairZipf:   true,
	},
	"patch-churn": {
		name:       "patch-churn",
		rate:       200,
		docs:       func(seed int64) []*docSpec { return xmarkDocs(seed, "pc", 0.05, 0.05) },
		patchCycle: true,
		queries:    paperQueries,
		limit:      50,
		streamFrac: 0.5,
		followFrac: 0.25,
		patchFrac:  1.0 / 11,
		asofFrac:   0.2,
		pairZipf:   true,
		// Every abandoned page token leases its generation for the
		// cursor TTL, and each patched generation of XMark 0.05 holds
		// ~4MB; at the default 60s TTL the live generations of one run
		// would not fit a small box. 500ms keeps them to ~0.5s of
		// patches.
		cursorTTL: 500 * time.Millisecond,
	},
	"corpus-cold": {
		name: "corpus-cold",
		rate: 500,
		docs: func(seed int64) []*docSpec {
			scales := make([]float64, 64)
			for i := range scales {
				scales[i] = 0.01
			}
			return xmarkDocs(seed, "cc", scales...)
		},
		queries:    paperQueries,
		mapped:     true,
		limit:      50,
		streamFrac: 0.5,
		followFrac: 0.25,
		budgetFrac: 0.25,
	},
}

// workloadNames lists the workloads in a fixed order.
var workloadNames = []string{"paper-pages", "patch-churn", "corpus-cold"}

// Patch-cycle fragments: an auction item under /site/regions/europe and
// a person under /site/people, chosen so that most paper queries
// (Q02-Q15) change answer between states.
const (
	fragItem = `<item><location>x</location><mailbox><mail><date>d</date>` +
		`<text>t <keyword>k<emph>e</emph></keyword></text></mail></mailbox>` +
		`<description><parlist><listitem><text><keyword>k2</keyword> <emph>e2</emph></text>` +
		`<parlist><listitem><text>n</text></listitem></parlist></listitem></parlist></description></item>`
	fragPerson = `<person><name>p</name><address><city>c</city></address><phone>1</phone></person>`
)

// buildPatchCycle gives d a four-state patch cycle: insert an item,
// insert a person, delete the item, delete the person. Node ids of each
// step are read off the harness's own copy of the state it applies to.
func buildPatchCycle(d *docSpec) {
	item := mustParse(fragItem)
	person := mustParse(fragPerson)
	s0 := d.states[0]
	europe := mustSelectOne(s0, "/site/regions/europe")
	people := mustSelectOne(s0, "/site/people")

	steps := []tree.Patch{{Op: tree.OpInsert, Node: europe, Before: tree.Nil, Frag: item}}
	s1, dl1 := mustApply(s0, steps[0])
	itemID := dl1.At
	people = shift(people, dl1)
	steps = append(steps, tree.Patch{Op: tree.OpInsert, Node: people, Before: tree.Nil, Frag: person})
	s2, dl2 := mustApply(s1, steps[1])
	personID := dl2.At
	itemID = shift(itemID, dl2)
	steps = append(steps, tree.Patch{Op: tree.OpDelete, Node: itemID, Before: tree.Nil})
	s3, dl3 := mustApply(s2, steps[2])
	personID = shift(personID, dl3)
	steps = append(steps, tree.Patch{Op: tree.OpDelete, Node: personID, Before: tree.Nil})
	if s2.LabelName(itemID) != "item" || s3.LabelName(personID) != "person" {
		panic("xpqbench: patch cycle targets the wrong nodes")
	}
	d.states = []*tree.Document{s0, s1, s2, s3}
	for i, pt := range steps {
		ps := patchStep{Op: pt.Op.String(), Node: pt.Node, pt: pt}
		switch i {
		case 0:
			ps.XML = fragItem
		case 1:
			ps.XML = fragPerson
		}
		d.patches = append(d.patches, ps)
	}
}

// shift maps a node id of a patch's input document to its id in the
// output, for nodes outside the spliced interval.
func shift(v tree.NodeID, dl *tree.Delta) tree.NodeID {
	if v >= dl.At+tree.NodeID(dl.Removed) {
		return v + tree.NodeID(dl.Inserted-dl.Removed)
	}
	return v
}

func mustParse(src string) *tree.Document {
	d, err := xmlparse.Parse([]byte(src))
	if err != nil {
		panic(err)
	}
	return d
}

func mustApply(d *tree.Document, pt tree.Patch) (*tree.Document, *tree.Delta) {
	nd, dl, err := d.Apply(pt)
	if err != nil {
		panic(err)
	}
	return nd, dl
}

func mustSelectOne(d *tree.Document, q string) tree.NodeID {
	sel := evalStepwise(d, xpath.MustParse(q))
	if len(sel) != 1 {
		panic(fmt.Sprintf("xpqbench: %s selects %d nodes", q, len(sel)))
	}
	return tree.NodeID(sel[0])
}

// writeInputs writes each document's initial state where xpqd will
// read it: XML files for -load, or XQO2 files in one directory for
// -mmap. It returns the xpqd document flags and the bytes written.
func writeInputs(wl *workload, docs []*docSpec, dir string) ([]string, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var flags []string
	var total int64
	for _, d := range docs {
		if wl.mapped {
			d.file = filepath.Join(dir, d.id+".xqo2")
			if err := store.SaveXQO2File(d.file, d.states[0]); err != nil {
				return nil, 0, fmt.Errorf("writing %s: %w", d.file, err)
			}
		} else {
			d.file = filepath.Join(dir, d.id+".xml")
			src := []byte(d.states[0].XMLString())
			if err := os.WriteFile(d.file, src, 0o644); err != nil {
				return nil, 0, fmt.Errorf("writing %s: %w", d.file, err)
			}
			// The oracle's copy is the document xpqd will parse, not the
			// generator's tree (serializing can renumber text nodes).
			parsed, err := xmlparse.Parse(src)
			if err != nil {
				return nil, 0, fmt.Errorf("parsing %s: %w", d.file, err)
			}
			d.states[0] = parsed
			flags = append(flags, "-load", d.id+"="+d.file)
		}
		fi, err := os.Stat(d.file)
		if err != nil {
			return nil, 0, err
		}
		total += fi.Size()
		if wl.patchCycle {
			buildPatchCycle(d)
		}
	}
	if wl.mapped {
		flags = append(flags, "-mmap", dir)
	}
	return flags, total, nil
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1).
type zipf struct{ cdf []float64 }

func newZipf(n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / float64(k+1)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// opStream generates the ops of one phase: n ops due at a fixed rate.
// phase separates the streams of the run's phases.
func opStream(wl *workload, ndocs int, seed int64, phase string, n int) []Op {
	// The popularity ranking of (doc, query) pairs or documents is part
	// of the workload, the same for every seed: a seed-dependent ranking
	// would change the mix's mean cost from run to run. The seed drives
	// the draws.
	rank := rand.New(rand.NewSource(nameHash(wl.name)))
	r := rand.New(rand.NewSource(seed ^ nameHash(wl.name+"/"+phase)))
	nq := len(wl.queries)
	var ranking []int
	if wl.pairZipf {
		ranking = rank.Perm(ndocs * nq)
	} else {
		ranking = rank.Perm(ndocs)
	}
	z := newZipf(len(ranking))
	interval := float64(time.Second) / wl.rate
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{Due: time.Duration(math.Round(float64(i) * interval))}
		if wl.patchFrac > 0 && r.Float64() < wl.patchFrac {
			op.Kind = kindPatch
			op.Doc = r.Intn(ndocs)
			ops = append(ops, op)
			continue
		}
		if wl.pairZipf {
			p := ranking[z.draw(r)]
			op.Doc, op.Query = p/nq, p%nq
		} else {
			op.Doc, op.Query = ranking[z.draw(r)], r.Intn(nq)
		}
		op.Kind = kindPage
		if r.Float64() < wl.streamFrac {
			op.Kind = kindStream
		}
		op.Limit = wl.limit
		if r.Float64() < wl.followFrac {
			op.Follow = 1 + r.Intn(3)
		}
		op.AsOf = wl.asofFrac > 0 && r.Float64() < wl.asofFrac
		ops = append(ops, op)
	}
	return ops
}

func nameHash(s string) int64 {
	h := int64(0)
	for _, c := range s {
		h = h*31 + int64(c)
	}
	return h
}
