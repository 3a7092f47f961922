package tree_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tgen"
	"repro/internal/tree"
)

// encode writes d's XQO2 document sections (no index sections: those
// belong to internal/index).
func encode(t testing.TB, d *tree.Document) []byte {
	t.Helper()
	w := tree.NewLayoutWriter()
	tree.AddDocumentSections(w, d, tree.NewSuccinct(d))
	var buf bytes.Buffer
	n, err := w.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo returned %d, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// decode opens data from an 8-byte-aligned copy and runs the full
// structural verification, as a heap load of an untrusted file does.
func decode(data []byte) (*tree.Document, error) {
	words := make([]uint64, (len(data)+7)/8)
	buf := tree.SliceBytes(words)[:len(data)]
	copy(buf, data)
	l, err := tree.OpenLayout(buf, words)
	if err != nil {
		return nil, err
	}
	d, _, err := tree.DocumentFromLayout(l)
	if err != nil {
		return nil, err
	}
	if err := d.VerifyStructure(); err != nil {
		return nil, err
	}
	return d, nil
}

func roundTrip(t *testing.T, d *tree.Document) *tree.Document {
	t.Helper()
	d2, err := decode(encode(t, d))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return d2
}

func docsEqual(a, b *tree.Document) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for v := tree.NodeID(0); int(v) < a.NumNodes(); v++ {
		if a.LabelName(v) != b.LabelName(v) ||
			a.Parent(v) != b.Parent(v) ||
			a.FirstChild(v) != b.FirstChild(v) ||
			a.NextSibling(v) != b.NextSibling(v) ||
			a.LastDesc(v) != b.LastDesc(v) ||
			a.Depth(v) != b.Depth(v) ||
			a.Text(v) != b.Text(v) {
			return false
		}
	}
	return true
}

func TestSerializeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		d := tgen.Random(seed, tgen.Config{MaxNodes: 200, TextProb: 0.25})
		return docsEqual(d, roundTrip(t, d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSerializeEmpty(t *testing.T) {
	d := tree.NewBuilder().MustFinish()
	if !docsEqual(d, roundTrip(t, d)) {
		t.Error("empty document round trip failed")
	}
}

func TestSerializeTextContent(t *testing.T) {
	b := tree.NewBuilder()
	b.Open("r")
	b.Text("hello <&> world")
	b.Text("")
	b.Open("x")
	b.Text("δ-trees")
	b.Close()
	b.Close()
	d := b.MustFinish()
	if !docsEqual(d, roundTrip(t, d)) {
		t.Error("text round trip failed")
	}
}

func TestDeserializeErrors(t *testing.T) {
	good := encode(t, tgen.Star("r", "c", 3))
	corruptCRC := bytes.Clone(good)
	corruptCRC[24+4] ^= 0xff // checksum field of the first table entry
	corruptBody := bytes.Clone(good)
	count := int(binary.LittleEndian.Uint32(good[16:]))
	corruptBody[(24+count*24+63)&^63] ^= 0x01 // first byte of the first payload
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("NOPE"), good[4:]...),
		"retired format":   append([]byte("XQO1"), good[4:]...),
		"truncated":        good[:len(good)/2],
		"short header":     good[:6],
		"corrupt checksum": corruptCRC,
		"corrupt body":     corruptBody,
	}
	for name, data := range cases {
		_, err := decode(data)
		if err == nil {
			t.Errorf("%s: expected error", name)
			continue
		}
		if name == "retired format" && !strings.Contains(err.Error(), "re-save") {
			t.Errorf("retired format: error %q does not say to re-save", err)
		}
	}
}

// Flipping any single byte — header, section table, payload or padding —
// must be rejected or decode to the very same document: never a
// silently different one.
func TestDeserializeChecksumCatchesFlips(t *testing.T) {
	d := tgen.Random(11, tgen.Config{MaxNodes: 60, TextProb: 0.3})
	data := encode(t, d)
	for i := 0; i < len(data); i++ {
		mutated := bytes.Clone(data)
		mutated[i] ^= 0x5a
		if d2, err := decode(mutated); err == nil && !docsEqual(d, d2) {
			t.Fatalf("byte flip at offset %d accepted as a different document", i)
		}
	}
}

// The resident format trades size for a decode-free open: verbatim
// int32 arrays plus the BP view cost a bounded number of bytes per node
// on top of the text, and the writer reports exactly what it wrote.
func TestSerializedSizeReasonable(t *testing.T) {
	d := tgen.Random(1, tgen.Config{MaxNodes: 5000, TextProb: 0.1, MaxChildren: 6})
	if d.NumNodes() < 500 {
		t.Fatalf("generator produced only %d nodes; pick another seed", d.NumNodes())
	}
	data := encode(t, d)
	if !bytes.HasPrefix(data, []byte("XQO2")) {
		t.Error("magic missing")
	}
	// Seven 4-byte arrays per node, under one byte of BP per node, plus
	// text, names and 64-byte section alignment.
	if limit := 29*d.NumNodes() + d.TextBytes() + 4096; len(data) > limit {
		t.Errorf("XQO2 form is %d bytes, over the %d-byte bound", len(data), limit)
	}
}

func BenchmarkSerialize(b *testing.B) {
	d := tgen.Random(1, tgen.Config{MaxNodes: 50000, TextProb: 0.2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encode(b, d)
	}
}

func BenchmarkDeserialize(b *testing.B) {
	d := tgen.Random(1, tgen.Config{MaxNodes: 50000, TextProb: 0.2})
	data := encode(b, d)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
