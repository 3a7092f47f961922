package index

import (
	"fmt"

	"repro/internal/tree"
)

// XQO2 sections for the jumping index. The per-label occurrence lists are
// stored as one concatenated preorder array plus a cumulative offset
// directory, so opening a mapped file rebuilds only the sigma slice
// headers — the occurrence data itself is aliased in place. The lazy
// BottomMost cache is not serialized; it rebuilds on demand as usual.
//
// Section kinds 32+ belong to this package (tree owns kinds below 32).
const (
	SecOccOff uint32 = 32 // []uint64, len sigma+1: cumulative occurrence offsets
	SecOccAll uint32 = 33 // []NodeID: all occurrence lists, concatenated by label
	SecBinEnd uint32 = 34 // []NodeID, len numNodes: binary-subtree ends
)

// AddSections serializes ix into w. The binEnd and occurrence arrays are
// aliased, not copied; only the offset directory is materialized.
func AddSections(w *tree.LayoutWriter, ix *Index) {
	occOff := make([]uint64, 0, len(ix.occ)+1)
	total := 0
	for _, occ := range ix.occ {
		occOff = append(occOff, uint64(total))
		total += len(occ)
	}
	occOff = append(occOff, uint64(total))
	occAll := make([]tree.NodeID, 0, total)
	for _, occ := range ix.occ {
		occAll = append(occAll, occ...)
	}
	w.Add(SecOccOff, tree.SliceBytes(occOff))
	w.Add(SecOccAll, tree.SliceBytes(occAll))
	w.Add(SecBinEnd, tree.SliceBytes(ix.binEnd))
}

// FromLayout reassembles the index for d from an opened container. Every
// occ[l] is a subslice of the mapped occurrence section; d must be the
// document opened from the same container (the occurrence node ids and
// binEnd values are validated against it).
func FromLayout(l *tree.Layout, d *tree.Document) (*Index, error) {
	n := d.NumNodes()
	sigma := d.Names().Size()
	occOffBytes := l.Section(SecOccOff)
	occOff, err := tree.AliasSlice[uint64](occOffBytes)
	if err != nil {
		return nil, fmt.Errorf("index: xqo2 occ offsets: %w", err)
	}
	if len(occOff) != sigma+1 {
		return nil, fmt.Errorf("index: xqo2: %d occ offsets for %d labels", len(occOff), sigma)
	}
	occAll, err := tree.AliasSlice[tree.NodeID](l.Section(SecOccAll))
	if err != nil {
		return nil, fmt.Errorf("index: xqo2 occurrences: %w", err)
	}
	// Every node occurs exactly once across all lists.
	if occOff[sigma] != uint64(len(occAll)) || len(occAll) != n {
		return nil, fmt.Errorf("index: xqo2: %d occurrences for %d nodes", len(occAll), n)
	}
	binEnd, err := tree.AliasSlice[tree.NodeID](l.Section(SecBinEnd))
	if err != nil {
		return nil, fmt.Errorf("index: xqo2 binEnd: %w", err)
	}
	if len(binEnd) != n {
		return nil, fmt.Errorf("index: xqo2: %d binEnd entries for %d nodes", len(binEnd), n)
	}
	ix := &Index{
		doc:        d,
		occ:        make([][]tree.NodeID, sigma),
		binEnd:     binEnd,
		bottomMost: make([][]tree.NodeID, sigma),
		built:      make([]bool, sigma),
	}
	// Per-label shape checks here are O(sigma): the offset directory must
	// be monotone within bounds, and each non-empty list's head must
	// actually carry the label — a cheap spot check that catches a
	// mis-paired occurrence section. Element-wise validation (every
	// occurrence strictly increasing and in range) is the opt-in
	// VerifyStructure pass; the default open trusts checksummed content.
	for lab := 0; lab < sigma; lab++ {
		lo, hi := occOff[lab], occOff[lab+1]
		if lo > hi || hi > uint64(len(occAll)) {
			return nil, fmt.Errorf("index: xqo2: label %d occ range [%d,%d) invalid", lab, lo, hi)
		}
		if hi > lo {
			if u := occAll[lo]; u >= 0 && int(u) < n && d.Label(u) != tree.LabelID(lab) {
				return nil, fmt.Errorf("index: xqo2: label %d occurrence list starts at node %d carrying label %d", lab, u, d.Label(u))
			}
		}
		ix.occ[lab] = occAll[lo:hi:hi]
	}
	return ix, nil
}

// VerifyStructure runs the element-wise validation the zero-copy open
// skips by default: it accepts exactly the index New would build for the
// document — binEnd[v] is the end of v's binary subtree, and each
// occurrence list holds, strictly increasing, the nodes carrying its
// label (with FromLayout's total count of n, the lists then partition
// the nodes). The document must have passed tree.Document.VerifyStructure
// first. See there for the trust model: this is the defense for files
// from outside this process, where a crafted value that passes the
// checksums would otherwise panic a later query or skew its answer.
func (ix *Index) VerifyStructure() error {
	d := ix.doc
	n := d.NumNodes()
	for v, e := range ix.binEnd {
		want := tree.NodeID(n - 1)
		if p := d.Parent(tree.NodeID(v)); p != tree.Nil {
			want = d.LastDesc(p)
		}
		if e != want {
			return fmt.Errorf("index: xqo2: node %d binEnd %d, want %d", v, e, want)
		}
	}
	for lab, occ := range ix.occ {
		prev := -1
		for _, u := range occ {
			if int(u) <= prev || int(u) >= n || d.Label(u) != tree.LabelID(lab) {
				return fmt.Errorf("index: xqo2: label %d occurrence %d invalid", lab, u)
			}
			prev = int(u)
		}
	}
	return nil
}
