package rowstore

import (
	"sort"

	"github.com/genbase/genbase/internal/storage"
)

// BTree is a B+tree secondary index mapping int64 keys to heap-file record
// locators. Duplicate keys are supported (the microarray table has many rows
// per gene and per patient). Leaves are chained for range scans. The tree is
// memory resident and rebuilt at load time, like an index created after a
// bulk load.
type BTree struct {
	order int // max keys per node
	root  *btreeNode
	size  int
}

type btreeNode struct {
	leaf     bool
	keys     []int64
	children []*btreeNode    // internal nodes: len(keys)+1
	rids     [][]storage.RID // leaves: parallel to keys
	next     *btreeNode      // leaf chain
}

// NewBTree creates an empty index. Order 0 selects a sensible default.
func NewBTree(order int) *BTree {
	if order < 4 {
		order = 64
	}
	return &BTree{order: order, root: &btreeNode{leaf: true}}
}

// Len returns the number of (key, rid) entries.
func (t *BTree) Len() int { return t.size }

// Insert adds one entry.
func (t *BTree) Insert(key int64, rid storage.RID) {
	t.size++
	newChild, splitKey := t.insert(t.root, key, rid)
	if newChild != nil {
		t.root = &btreeNode{
			keys:     []int64{splitKey},
			children: []*btreeNode{t.root, newChild},
		}
	}
}

// insert descends; on child split returns the new right sibling and its
// separator key.
func (t *BTree) insert(n *btreeNode, key int64, rid storage.RID) (*btreeNode, int64) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		if i < len(n.keys) && n.keys[i] == key {
			n.rids[i] = append(n.rids[i], rid)
			return nil, 0
		}
		n.keys = append(n.keys, 0)
		n.rids = append(n.rids, nil)
		copy(n.keys[i+1:], n.keys[i:])
		copy(n.rids[i+1:], n.rids[i:])
		n.keys[i] = key
		n.rids[i] = []storage.RID{rid}
		if len(n.keys) > t.order {
			return t.splitLeaf(n)
		}
		return nil, 0
	}
	i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	newChild, splitKey := t.insert(n.children[i], key, rid)
	if newChild == nil {
		return nil, 0
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.keys) > t.order {
		return t.splitInternal(n)
	}
	return nil, 0
}

func (t *BTree) splitLeaf(n *btreeNode) (*btreeNode, int64) {
	mid := len(n.keys) / 2
	right := &btreeNode{
		leaf: true,
		keys: append([]int64{}, n.keys[mid:]...),
		rids: append([][]storage.RID{}, n.rids[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.rids = n.rids[:mid]
	n.next = right
	return right, right.keys[0]
}

func (t *BTree) splitInternal(n *btreeNode) (*btreeNode, int64) {
	mid := len(n.keys) / 2
	splitKey := n.keys[mid]
	right := &btreeNode{
		keys:     append([]int64{}, n.keys[mid+1:]...),
		children: append([]*btreeNode{}, n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return right, splitKey
}

// findLeaf returns the leaf that would contain key.
func (t *BTree) findLeaf(key int64) *btreeNode {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.children[i]
	}
	return n
}

// Search returns the locators for an exact key (nil if absent).
func (t *BTree) Search(key int64) []storage.RID {
	n := t.findLeaf(key)
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		return n.rids[i]
	}
	return nil
}

// CollectRIDs gathers the locators for a set of keys, sorted in physical
// file order — the bitmap-index-scan access pattern, which converts random
// index lookups into near-sequential page access.
func (t *BTree) CollectRIDs(keys []int64) []storage.RID {
	var out []storage.RID
	for _, k := range keys {
		out = append(out, t.Search(k)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
	return out
}
