package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tree"
)

func TestLoadXMLAndStats(t *testing.T) {
	s := New()
	h, err := s.LoadXML("d1", []byte("<r><a>hi</a><a/></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.Nodes != h.Doc.NumNodes() || h.Stats.Nodes == 0 {
		t.Errorf("stats nodes = %d, doc nodes = %d", h.Stats.Nodes, h.Doc.NumNodes())
	}
	if h.Stats.Labels != h.Doc.Names().Size() {
		t.Errorf("stats labels = %d, want %d", h.Stats.Labels, h.Doc.Names().Size())
	}
	if h.Stats.MemBytes <= 0 {
		t.Errorf("mem estimate = %d, want > 0", h.Stats.MemBytes)
	}
	if h.Stats.Source != SourceXML {
		t.Errorf("source = %q, want xml", h.Stats.Source)
	}
	if h.Index == nil {
		t.Fatal("index not built")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	s := New()
	if _, err := s.LoadXML("d", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadXML("d", []byte("<r/>")); err == nil ||
		!strings.Contains(err.Error(), "already loaded") {
		t.Errorf("duplicate id: err = %v, want already-loaded error", err)
	}
	if _, err := s.LoadXML("", []byte("<r/>")); err == nil {
		t.Error("empty id must be rejected")
	}
}

func TestEvictAndList(t *testing.T) {
	s := New()
	mustLoad(t, s, "b")
	mustLoad(t, s, "a")
	mustLoad(t, s, "c")
	list := s.List()
	if len(list) != 3 || list[0].ID != "a" || list[1].ID != "b" || list[2].ID != "c" {
		t.Errorf("list not sorted by id: %+v", list)
	}
	if !s.Evict("b") {
		t.Error("evict existing = false")
	}
	if s.Evict("b") {
		t.Error("evict missing = true")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
	if _, ok := s.Get("b"); ok {
		t.Error("evicted doc still resident")
	}
	// Evicting frees the slot for reload.
	mustLoad(t, s, "b")
}

func TestBinaryRoundTripThroughStore(t *testing.T) {
	s := New()
	h := mustLoad(t, s, "orig")
	var buf bytes.Buffer
	if _, err := WriteXQO2(&buf, h.Doc); err != nil {
		t.Fatal(err)
	}
	h2, err := s.LoadBinary("copy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Doc.XMLString() != h.Doc.XMLString() {
		t.Error("binary round-trip changed the document")
	}
	if h2.Stats.Source != SourceBinary {
		t.Errorf("source = %q, want binary", h2.Stats.Source)
	}
}

func TestLoadBinaryFile(t *testing.T) {
	s := New()
	h := mustLoad(t, s, "orig")
	path := filepath.Join(t.TempDir(), "doc.xqo2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteXQO2(f, h.Doc); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := s.LoadBinaryFile("fromfile", path)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Doc.XMLString() != h.Doc.XMLString() {
		t.Error("file round-trip changed the document")
	}
}

func TestGenerateXMark(t *testing.T) {
	s := New()
	h, err := s.GenerateXMark("xm", 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.Source != SourceXMark || h.Stats.Nodes < 100 {
		t.Errorf("xmark doc: source=%q nodes=%d", h.Stats.Source, h.Stats.Nodes)
	}
	if _, err := s.GenerateXMark("bad", 0, 1); err == nil {
		t.Error("scale 0 must be rejected")
	}
}

func mustLoad(t *testing.T, s *Store, id string) *Handle {
	t.Helper()
	h, err := s.LoadXML(id, []byte("<root><x>text</x><y><z/></y></root>"))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestAcquireHoldsGenerationForLease pins the read-reference contract
// the service's cursor tokens rely on: a generation acquired before a
// patch stays readable — and leasable — until Release, and the release
// of its last reference retires it once nothing else keeps it.
func TestAcquireHoldsGenerationForLease(t *testing.T) {
	s := New()
	mustLoad(t, s, "d")
	h, err := s.Acquire("d", NoGen)
	if err != nil {
		t.Fatal(err)
	}
	ins := func() {
		t.Helper()
		frag := mustLoad(t, New(), "frag").Doc
		if _, err := s.Patch("d", NoGen, tree.Patch{Op: tree.OpInsert, Node: 1, Before: tree.Nil, Frag: frag}); err != nil {
			t.Fatal(err)
		}
	}
	ins()
	if err := s.Lease("d", h.Gen, time.Now().Add(time.Hour)); err != nil {
		t.Fatalf("lease of an acquired, superseded generation: %v", err)
	}
	s.Release(h)
	if _, err := s.GetAsOf("d", h.Gen); err != nil {
		t.Fatalf("leased generation retired on release: %v", err)
	}
	s.Redeem("d", h.Gen)
	if _, err := s.GetAsOf("d", h.Gen); !errors.Is(err, ErrGone) {
		t.Fatalf("after redeem: err = %v, want ErrGone", err)
	}

	// The last release retires a superseded generation by itself.
	h2, err := s.Acquire("d", NoGen)
	if err != nil {
		t.Fatal(err)
	}
	ins()
	s.Release(h2)
	if _, err := s.Acquire("d", h2.Gen); !errors.Is(err, ErrGone) {
		t.Fatalf("after last release: err = %v, want ErrGone", err)
	}

	// Evict overrides references: the lease an in-flight read would
	// take fails, and its release is harmless.
	h3, err := s.Acquire("d", NoGen)
	if err != nil {
		t.Fatal(err)
	}
	s.Evict("d")
	if err := s.Lease("d", h3.Gen, time.Now().Add(time.Hour)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lease after evict: err = %v, want ErrNotFound", err)
	}
	s.Release(h3)
}
