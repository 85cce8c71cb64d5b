package cfg

// GenerateOptions bounds language enumeration.
type GenerateOptions struct {
	// MaxNodes bounds the size (node count) of generated derivation
	// trees. Must be positive.
	MaxNodes int
}

// Generate enumerates derivation trees of the grammar's start symbol with
// at most opts.MaxNodes nodes, invoking yield for each. Enumeration is
// deterministic (productions in ID order, smaller subtrees first) and
// stops early when yield returns false.
//
// The ASG layer filters this enumeration through ASP annotations to
// produce the policies a generative policy model admits in a context.
func (g *Grammar) Generate(opts GenerateOptions, yield func(*Tree) bool) {
	if opts.MaxNodes <= 0 {
		return
	}
	gen := &generator{g: g}
	gen.symbol(NT(g.Start), opts.MaxNodes, func(t *Tree) bool {
		if !yield(t) {
			gen.stopped = true
			return false
		}
		return true
	})
}

// GenerateStrings collects the derived token strings (joined by spaces)
// of Generate, deduplicated, in generation order.
func (g *Grammar) GenerateStrings(opts GenerateOptions) []string {
	seen := make(map[string]struct{})
	var out []string
	g.Generate(opts, func(t *Tree) bool {
		s := t.Text()
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			out = append(out, s)
		}
		return true
	})
	return out
}

type generator struct {
	g       *Grammar
	stopped bool
}

// symbol enumerates trees for sym with at most budget nodes.
func (gen *generator) symbol(sym Symbol, budget int, emit func(*Tree) bool) bool {
	if gen.stopped || budget < 1 {
		return true
	}
	if sym.Terminal {
		return emit(Leaf(sym.Name))
	}
	for _, id := range gen.g.byLhs[sym.Name] {
		p := gen.g.Productions[id]
		if !gen.sequence(p.Rhs, budget-1, func(children []*Tree) bool {
			kids := make([]*Tree, len(children))
			copy(kids, children)
			return emit(Node(p, kids...))
		}) {
			return false
		}
		if gen.stopped {
			return true
		}
	}
	return true
}

// sequence enumerates lists of trees for the symbols with total node
// budget.
func (gen *generator) sequence(syms []Symbol, budget int, emit func([]*Tree) bool) bool {
	if gen.stopped {
		return true
	}
	if len(syms) == 0 {
		return emit(nil)
	}
	if budget < minNodes(syms) {
		return true
	}
	head, rest := syms[0], syms[1:]
	restMin := minNodes(rest)
	ok := true
	gen.symbol(head, budget-restMin, func(t *Tree) bool {
		used := t.Size()
		cont := gen.sequence(rest, budget-used, func(tail []*Tree) bool {
			return emit(append([]*Tree{t}, tail...))
		})
		if !cont {
			ok = false
		}
		return cont && !gen.stopped
	})
	return ok
}

// minNodes returns a lower bound on the node count needed to derive the
// symbols (1 per symbol; cheap but sound).
func minNodes(syms []Symbol) int {
	return len(syms)
}
