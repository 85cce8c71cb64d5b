package cfg

import (
	"strconv"
	"strings"
)

// Tree is a parse/derivation tree. Interior nodes carry the production
// applied at that node; leaves are terminal symbols (Prod == nil).
type Tree struct {
	Sym      Symbol
	Prod     *Production // nil for terminal leaves
	Children []*Tree
}

// Leaf builds a terminal leaf node.
func Leaf(token string) *Tree {
	return &Tree{Sym: T(token)}
}

// Node builds an interior node for a production with the given children.
func Node(p Production, children ...*Tree) *Tree {
	prod := p
	return &Tree{Sym: NT(p.Lhs), Prod: &prod, Children: children}
}

// Tokens returns the terminal tokens of the tree read left to right (the
// string the tree derives).
func (t *Tree) Tokens() []string {
	var out []string
	t.appendTokens(&out)
	return out
}

func (t *Tree) appendTokens(out *[]string) {
	if t.Prod == nil && t.Sym.Terminal {
		*out = append(*out, t.Sym.Name)
		return
	}
	for _, c := range t.Children {
		c.appendTokens(out)
	}
}

// Text returns the derived string with tokens joined by spaces.
func (t *Tree) Text() string {
	return strings.Join(t.Tokens(), " ")
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int {
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Depth returns the height of the tree (a leaf has depth 1).
func (t *Tree) Depth() int {
	max := 0
	for _, c := range t.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Trace identifies a node by the child-index path from the root; indices
// are 1-based following the paper ("the i-th child of the root is [i]").
type Trace []int

// String renders the trace as e.g. "[1,2]"; the root is "[]".
func (tr Trace) String() string {
	parts := make([]string, len(tr))
	for i, x := range tr {
		parts[i] = strconv.Itoa(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Key renders a compact unique encoding usable in predicate manglings:
// RootKey for the root, and ChildKey of its parent's key for any other
// node.
func (tr Trace) Key() string {
	key := RootKey
	for _, x := range tr {
		key = ChildKey(key, x)
	}
	return key
}

// RootKey is the root's trace key.
const RootKey = "r"

// ChildKey returns the trace key of child i (1-based) of the node whose
// trace key is key, so a walk can render each node's key once.
func ChildKey(key string, i int) string { return key + "_" + strconv.Itoa(i) }

// Child extends the trace with a 1-based child index.
func (tr Trace) Child(i int) Trace {
	out := make(Trace, len(tr)+1)
	copy(out, tr)
	out[len(tr)] = i
	return out
}

// Walk visits every node of the tree in depth-first order together with
// its trace. Returning false from the visitor stops the walk.
func (t *Tree) Walk(visit func(node *Tree, trace Trace) bool) {
	var rec func(node *Tree, trace Trace) bool
	rec = func(node *Tree, trace Trace) bool {
		if !visit(node, trace) {
			return false
		}
		for i, c := range node.Children {
			if !rec(c, trace.Child(i+1)) {
				return false
			}
		}
		return true
	}
	rec(t, Trace{})
}

// Pretty renders the tree with indentation, for debugging and docs.
func (t *Tree) Pretty() string {
	var sb strings.Builder
	var rec func(node *Tree, depth int)
	rec = func(node *Tree, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if node.Prod == nil {
			sb.WriteString(node.Sym.String())
		} else {
			sb.WriteString(node.Sym.Name)
		}
		sb.WriteByte('\n')
		for _, c := range node.Children {
			rec(c, depth+1)
		}
	}
	rec(t, 0)
	return sb.String()
}
