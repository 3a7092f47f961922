package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/qcache"
	"repro/internal/tree"
	"repro/internal/xmark"
	"repro/internal/xmlparse"
)

// resealAll recomputes the checksum of every in-bounds section, so a
// mutated image reaches the structural checks instead of stopping at
// the CRCs.
func resealAll(data []byte) []byte {
	if len(data) < 24 {
		return data
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	count := int(binary.LittleEndian.Uint32(data[16:]))
	for i := 0; i < count && 24+(i+1)*24 <= len(data); i++ {
		e := data[24+i*24:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			continue
		}
		binary.LittleEndian.PutUint32(e[4:], crc32.Checksum(data[off:off+length], table))
	}
	return data
}

// rebuild replays d's tree through a Builder, following the links the
// engines follow (firstChild, then nextSibling) — the independent
// oracle for what an accepted image must be. A link cycle exhausts the
// node budget instead of looping.
func rebuild(t *testing.T, d *tree.Document) *tree.Document {
	t.Helper()
	b := tree.NewBuilder()
	for _, name := range d.Names().Names() {
		b.Names().Intern(name)
	}
	budget := d.NumNodes() - 1
	var walk func(v tree.NodeID)
	walk = func(v tree.NodeID) {
		if budget--; budget < 0 {
			t.Fatal("accepted image has more reachable nodes than it declares (link cycle)")
		}
		if d.Label(v) == tree.LabelText {
			b.Text(d.Text(v))
			return
		}
		b.OpenID(d.Label(v))
		for c := d.FirstChild(v); c != tree.Nil; c = d.NextSibling(c) {
			walk(c)
		}
		b.Close()
	}
	for c := d.FirstChild(0); c != tree.Nil; c = d.NextSibling(c) {
		walk(c)
	}
	out, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameDocument compares every array a query can read.
func sameDocument(a, b *tree.Document) bool {
	if a.NumNodes() != b.NumNodes() || !reflect.DeepEqual(a.Names().Names(), b.Names().Names()) {
		return false
	}
	for v := tree.NodeID(0); int(v) < a.NumNodes(); v++ {
		if a.Label(v) != b.Label(v) || a.Parent(v) != b.Parent(v) ||
			a.FirstChild(v) != b.FirstChild(v) || a.NextSibling(v) != b.NextSibling(v) ||
			a.LastDesc(v) != b.LastDesc(v) || a.Depth(v) != b.Depth(v) || a.Text(v) != b.Text(v) {
			return false
		}
	}
	return true
}

// sameIndex compares occurrence lists and binary-subtree ends.
func sameIndex(a, b *index.Index) bool {
	d := a.Doc()
	for l := 0; l < d.Names().Size(); l++ {
		if !reflect.DeepEqual(a.Occurrences(tree.LabelID(l)), b.Occurrences(tree.LabelID(l))) {
			return false
		}
	}
	for v := tree.NodeID(0); int(v) < d.NumNodes(); v++ {
		if a.BinEnd(v) != b.BinEnd(v) {
			return false
		}
	}
	return true
}

// FuzzOpenXQO2Bytes drives the verified heap open with arbitrary bytes.
// It must reject the input or round-trip it: an accepted document is
// exactly the one a Builder produces when replaying its links, and the
// accepted index exactly the one index.New builds for it. It must never
// panic. With reseal set, the checksums are recomputed first, so the
// mutations reach the structural checks.
func FuzzOpenXQO2Bytes(f *testing.F) {
	for _, src := range []string{
		"<r><a>x</a><b/><a><b>y</b></a></r>",
		"<site><people><person><name>n</name><phone/></person></people><regions/></site>",
	} {
		d, err := xmlparse.Parse([]byte(src))
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := WriteXQO2(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), false)
		f.Add(buf.Bytes(), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealAll(bytes.Clone(data))
		}
		d, ix, err := ReadXQO2(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !sameDocument(d, rebuild(t, d)) {
			t.Fatal("accepted document differs from its Builder replay")
		}
		if !sameIndex(ix, index.New(d)) {
			t.Fatal("accepted index differs from a fresh build")
		}
	})
}

// TestSaveOverMappedFile regenerates a file a live handle has mapped:
// the save must land on a new inode, leaving the mapped one — and every
// answer read through it — untouched. Rewriting the file in place would
// truncate the pages under the mapping (SIGBUS on the next read).
func TestSaveOverMappedFile(t *testing.T) {
	d1 := xmark.Generate(xmark.Config{Scale: 0.002, Seed: 1})
	d2 := xmark.Generate(xmark.Config{Scale: 0.001, Seed: 2})
	path := saveXQO2(t, d1)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	od, _, ix, _, err := OpenXQO2(path)
	if err != nil {
		t.Fatal(err)
	}
	const q = "//listitem//keyword"
	want, err := core.New(d1).Query(q)
	if err != nil {
		t.Fatal(err)
	}

	if err := SaveXQO2File(path, d2); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("save rewrote the mapped inode in place")
	}
	if !sameDocument(od, d1) || !sameIndex(ix, index.New(d1)) {
		t.Fatal("the mapped handle's arrays changed under it")
	}
	got, err := core.NewWithIndex(od, ix, qcache.New(qcache.DefaultCapacity), "").Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) {
		t.Fatalf("answer through the old mapping changed: %d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	// The path names the new document, and no temporary file is left.
	nd, _, _, _, err := OpenXQO2(path)
	if err != nil || !sameDocument(nd, d2) {
		t.Fatalf("path does not name the new document (err %v)", err)
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Fatalf("directory holds %d entries after the save, want 1", len(ents))
	}
}
