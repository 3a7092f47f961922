package repro_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
)

// TestBinaryRoundTripPaperQueries round-trips an XMark-generated
// document through the binary serialization and asserts that all
// fifteen Figure 2 queries answer identically on the reloaded copy —
// the persistence guarantee behind xpq -save/-load and the daemon's
// binary_file loads.
func TestBinaryRoundTripPaperQueries(t *testing.T) {
	orig := repro.GenerateXMark(0.003, 42)

	var buf bytes.Buffer
	if _, err := repro.SaveDocument(&buf, orig); err != nil {
		t.Fatal(err)
	}
	copyDoc, err := repro.LoadDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if copyDoc.NumNodes() != orig.NumNodes() {
		t.Fatalf("node count: got %d, want %d", copyDoc.NumNodes(), orig.NumNodes())
	}

	engOrig := repro.NewEngine(orig)
	engCopy := repro.NewEngine(copyDoc)
	for _, q := range repro.PaperQueries() {
		ansOrig, err := engOrig.Query(q.XPath)
		if err != nil {
			t.Fatalf("%s on original: %v", q.ID, err)
		}
		ansCopy, err := engCopy.Query(q.XPath)
		if err != nil {
			t.Fatalf("%s on reloaded copy: %v", q.ID, err)
		}
		if !reflect.DeepEqual(ansOrig.Nodes, ansCopy.Nodes) {
			t.Errorf("%s: reloaded answer differs (%d vs %d nodes)",
				q.ID, len(ansCopy.Nodes), len(ansOrig.Nodes))
		}
	}
}

// TestSaveLoadDocumentFile exercises the file-level helpers used by the
// xpq -save/-load flags.
func TestSaveLoadDocumentFile(t *testing.T) {
	doc := repro.GenerateXMark(0.001, 7)
	path := filepath.Join(t.TempDir(), "doc.xqo2")
	if err := repro.SaveDocumentFile(path, doc); err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadDocumentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.XMLString() != doc.XMLString() {
		t.Error("file round-trip changed the document")
	}
}
