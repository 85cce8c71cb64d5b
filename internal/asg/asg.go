// Package asg implements Answer Set Grammars (ASGs), the core formalism
// of the AGENP paper (Section II): context-free grammars whose production
// rules are annotated with ASP programs. An annotated atom `a@i` refers
// to the i-th child of the parse-tree node at which the production is
// applied; unannotated atoms refer to the node itself.
//
// For a parse tree PT of the underlying CFG, the grammar induces the ASP
// program G[PT] that localizes every annotation to the node's trace
// (Definition 2 / the G[PT] mapping of Law et al., AAAI-19). A string s
// is in the language L(G) iff some parse tree's program has an answer
// set. Adding a context program C to every production yields G(C), the
// set of policies valid in context C — the paper's generative policy
// model reading of an ASG.
package asg

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"agenp/internal/asp"
	"agenp/internal/cfg"
	"agenp/internal/obs"
)

// WithContext outcomes: contexts kept once per tree program, and
// contexts copied into every production.
var (
	statContextShared = obs.C("asg.context.shared")
	statContextCopied = obs.C("asg.context.copied")
)

// annSep separates a predicate name from its annotation index in the
// intermediate (pre-trace) encoding produced by the ASG parser. It cannot
// occur in source programs.
const annSep = "\x00"

// traceSep separates a predicate name from its trace key in localized
// (ground-tree) programs.
const traceSep = "@"

// Grammar is an answer set grammar: a CFG plus one annotation program per
// production (possibly empty).
type Grammar struct {
	CFG *cfg.Grammar

	// Annotations[i] is the ASP annotation of production i, with atoms in
	// the intermediate encoding (predicate + annSep + childIndex for
	// annotated atoms). May be nil.
	Annotations []*asp.Program

	// AnnLines[i], when non-zero, is the 1-based line of the source .asg
	// file where production i's annotation block starts. Positions inside
	// Annotations[i] are relative to the block; adding AnnLines[i]-1 maps
	// them back to the grammar file. Nil for programmatically built
	// grammars.
	AnnLines []int

	// context holds the facts of a context that G(C) shares instead of
	// copying them into every annotation (see WithContext), and
	// ctxPreds their predicates, which localization leaves at no trace.
	// Both are nil when the grammar shares no context.
	context  []asp.Rule
	ctxPreds map[string]struct{}
}

// AnnLine returns the source line where production i's annotation block
// starts, or 0 when unknown.
func (g *Grammar) AnnLine(i int) int {
	if i < 0 || i >= len(g.AnnLines) {
		return 0
	}
	return g.AnnLines[i]
}

// Clone returns a deep-enough copy: the CFG is shared (immutable by
// convention), annotation programs are copied.
func (g *Grammar) Clone() *Grammar {
	ann := make([]*asp.Program, len(g.Annotations))
	for i, p := range g.Annotations {
		if p != nil {
			ann[i] = p.Clone()
		}
	}
	return &Grammar{CFG: g.CFG, Annotations: ann, AnnLines: slices.Clone(g.AnnLines),
		context: g.context, ctxPreds: g.ctxPreds}
}

// encodeAnn encodes an annotated atom's predicate in the intermediate
// form.
func encodeAnn(pred string, child int) string {
	return pred + annSep + strconv.Itoa(child)
}

// decodeAnn splits an intermediate-form predicate into name and child
// annotation; ok is false for unannotated predicates.
func decodeAnn(pred string) (name string, child int, ok bool) {
	i := strings.IndexByte(pred, annSep[0])
	if i < 0 {
		return pred, 0, false
	}
	c, err := strconv.Atoi(pred[i+1:])
	if err != nil {
		return pred, 0, false
	}
	return pred[:i], c, true
}

// EncodeAnnotated returns the intermediate-form predicate for `pred@child`,
// for building annotation rules and hypothesis spaces programmatically.
func EncodeAnnotated(pred string, child int) string { return encodeAnn(pred, child) }

// DecodeAnnotated splits an intermediate-form predicate into its surface
// name and child annotation; ok is false for unannotated predicates. It
// is the inverse of EncodeAnnotated, used when rendering diagnostics
// about annotation programs.
func DecodeAnnotated(pred string) (name string, child int, ok bool) { return decodeAnn(pred) }

// AnnotationHook is the asp.ParseAnnotated hook that encodes annotations
// in the intermediate form.
func AnnotationHook(a asp.Atom, ann int, has bool) asp.Atom {
	if has {
		a.Predicate = encodeAnn(a.Predicate, ann)
	}
	return a
}

// New builds an ASG from a CFG and per-production annotation programs
// (map from production ID). Annotation indices are validated against
// production arity.
func New(g *cfg.Grammar, annotations map[int]*asp.Program) (*Grammar, error) {
	out := &Grammar{CFG: g, Annotations: make([]*asp.Program, len(g.Productions))}
	for id, prog := range annotations {
		if id < 0 || id >= len(g.Productions) {
			return nil, fmt.Errorf("asg: annotation for unknown production %d", id)
		}
		if err := validateAnnotation(g.Productions[id], prog); err != nil {
			return nil, err
		}
		out.Annotations[id] = prog
	}
	return out, nil
}

func validateAnnotation(p cfg.Production, prog *asp.Program) error {
	if prog == nil {
		return nil
	}
	check := func(a asp.Atom) error {
		if _, child, ok := decodeAnn(a.Predicate); ok {
			if child < 1 || child > len(p.Rhs) {
				return fmt.Errorf("asg: annotation @%d out of range for production %q (arity %d)", child, p.String(), len(p.Rhs))
			}
		}
		return nil
	}
	for _, r := range prog.Rules {
		if r.Head != nil {
			if err := check(*r.Head); err != nil {
				return err
			}
		}
		for _, a := range r.Choice {
			if err := check(a); err != nil {
				return err
			}
		}
		for _, l := range r.Body {
			if l.IsCmp {
				continue
			}
			if err := check(l.Atom); err != nil {
				return err
			}
		}
	}
	return nil
}

// DelocalizeAtom strips the trace suffix from a localized atom, returning
// the original predicate and the trace key ("" when the atom was not
// localized). Useful for rendering answer sets of tree programs.
func DelocalizeAtom(a asp.Atom) (asp.Atom, string) {
	i := strings.LastIndex(a.Predicate, traceSep)
	if i < 0 {
		return a, ""
	}
	key := a.Predicate[i+1:]
	a.Predicate = a.Predicate[:i]
	return a, key
}

// localizer rewrites annotation rules for one interior node: `a@i` atoms
// move to the i-th child's trace, unannotated atoms to the node's own,
// except that the predicates of a shared context stay unlocalized. Each
// trace key is rendered once per node.
type localizer struct {
	preds map[string]struct{}
	key   string
	kids  []string // kids[i-1] is child i's key, "" until rendered
}

func (l *localizer) child(i int) string {
	if i < 1 || i > len(l.kids) {
		return cfg.ChildKey(l.key, i)
	}
	if l.kids[i-1] == "" {
		l.kids[i-1] = cfg.ChildKey(l.key, i)
	}
	return l.kids[i-1]
}

func (l *localizer) atom(a asp.Atom) asp.Atom {
	name, child, ok := decodeAnn(a.Predicate)
	if ok {
		a.Predicate = name + traceSep + l.child(child)
	} else if _, shared := l.preds[name]; !shared {
		a.Predicate = name + traceSep + l.key
	}
	return a
}

func (l *localizer) rule(r asp.Rule) asp.Rule {
	out := asp.Rule{Pos: r.Pos}
	if r.Head != nil {
		h := l.atom(*r.Head)
		out.Head = &h
	}
	if len(r.Choice) > 0 {
		out.Choice = make([]asp.Atom, len(r.Choice))
		for i, a := range r.Choice {
			out.Choice[i] = l.atom(a)
		}
	}
	out.Body = make([]asp.Literal, len(r.Body))
	for i, lit := range r.Body {
		if lit.IsCmp {
			out.Body[i] = lit
			continue
		}
		out.Body[i] = asp.Literal{Atom: l.atom(lit.Atom), Negated: lit.Negated, Pos: lit.Pos}
	}
	return out
}

// forNodes calls visit for every interior node of the subtree at node,
// whose trace key is key, in depth-first order, and stops at the first
// error.
func (g *Grammar) forNodes(node *cfg.Tree, key string, visit func(*cfg.Tree, *localizer) error) error {
	if node.Prod == nil {
		return nil
	}
	l := localizer{preds: g.ctxPreds, key: key, kids: make([]string, len(node.Children))}
	if err := visit(node, &l); err != nil {
		return err
	}
	for i, c := range node.Children {
		if c.Prod == nil {
			continue
		}
		if err := g.forNodes(c, l.child(i+1), visit); err != nil {
			return err
		}
	}
	return nil
}

// Localize returns the instances rule r contributes to G[PT] when it
// annotates production prodID: r localized at every node of t that
// applies the production, in walk order, reading a shared context
// where g's own annotations read it. For every rule g Localizes, that
// is G:{r}[PT] − G[PT].
func (g *Grammar) Localize(r asp.Rule, prodID int, t *cfg.Tree) []asp.Rule {
	var out []asp.Rule
	_ = g.forNodes(t, cfg.RootKey, func(node *cfg.Tree, l *localizer) error {
		if node.Prod.ID == prodID {
			out = append(out, l.rule(r))
		}
		return nil
	})
	return out
}

// Localizes reports whether rule r can join g's annotations with g's
// context still shared: false when g shares a context (see WithContext)
// and r defines one of its predicates or reads one through @i, in which
// case WithHypothesis copies the context into every production and
// Localize does not give what r adds.
func (g *Grammar) Localizes(r asp.Rule) bool {
	return !touchesContext(r, g.ctxPreds)
}

// touchesContext reports whether rule r defines a predicate of preds in
// its head or a choice atom, or reads one through an @i annotation.
func touchesContext(r asp.Rule, preds map[string]struct{}) bool {
	if len(preds) == 0 {
		return false
	}
	in := func(a asp.Atom) bool {
		name, _, _ := decodeAnn(a.Predicate)
		_, ok := preds[name]
		return ok
	}
	if r.Head != nil && in(*r.Head) {
		return true
	}
	for _, a := range r.Choice {
		if in(a) {
			return true
		}
	}
	for _, l := range r.Body {
		if l.IsCmp {
			continue
		}
		if _, _, annotated := decodeAnn(l.Atom.Predicate); annotated && in(l.Atom) {
			return true
		}
	}
	return false
}

// TreeProgram builds G[PT]: the union over all interior nodes n (with
// trace t and production p) of the annotation of p localized at t, plus
// one copy of a shared context. Terminal leaves contribute nothing.
func (g *Grammar) TreeProgram(t *cfg.Tree) (*asp.Program, error) {
	// Pre-count the localized rules (a trace-free walk) so the program's
	// rule slice is allocated once; membership checks build a fresh tree
	// program per parse tree, making append growth here a hot cost.
	total := len(g.context)
	var count func(node *cfg.Tree)
	count = func(node *cfg.Tree) {
		if node.Prod != nil {
			if id := node.Prod.ID; id >= 0 && id < len(g.Annotations) && g.Annotations[id] != nil {
				total += len(g.Annotations[id].Rules)
			}
		}
		for _, c := range node.Children {
			count(c)
		}
	}
	count(t)
	prog := &asp.Program{Rules: make([]asp.Rule, 0, total)}
	if t.Prod != nil {
		prog.Rules = append(prog.Rules, g.context...)
	}
	err := g.forNodes(t, cfg.RootKey, func(node *cfg.Tree, l *localizer) error {
		id := node.Prod.ID
		if id < 0 || id >= len(g.Annotations) {
			return fmt.Errorf("asg: tree uses unknown production id %d", id)
		}
		if ann := g.Annotations[id]; ann != nil {
			for _, r := range ann.Rules {
				prog.Rules = append(prog.Rules, l.rule(r))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// TreeValid reports whether the parse tree satisfies the grammar's
// semantic conditions: G[PT] has at least one answer set.
func (g *Grammar) TreeValid(t *cfg.Tree) (bool, error) {
	prog, err := g.TreeProgram(t)
	if err != nil {
		return false, err
	}
	return asp.HasAnswerSet(prog)
}

// Accepts reports whether the token string is in L(G): some parse tree of
// the underlying CFG, among the first cfg.DefaultMaxTrees, has a
// satisfiable tree program.
func (g *Grammar) Accepts(tokens []string) (bool, error) {
	trees := g.CFG.ParseAll(tokens, cfg.ParseOptions{})
	for _, t := range trees {
		ok, err := g.TreeValid(t)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// WithContext returns G(C): the grammar with the context program's rules
// added to the annotation of every production (paper Section III.A.1).
// Context atoms are unannotated, so each node sees the context at its own
// trace.
//
// When every rule of C is a ground fact, and no annotation rule defines
// a predicate of C in its head or a choice atom or reads one through @i,
// each node's copy of C is the bottom of a splitting set of G(C)[T]
// (Lifschitz–Turner) whose one answer set is C itself, the same at every
// node. G(C) then keeps C's facts once, beside annotations it shares
// with G: TreeProgram adds them once, and localization leaves C's
// predicates unlocalized, so every node reads the one copy. Any other
// context is copied into every production's annotation.
func (g *Grammar) WithContext(c *asp.Program) *Grammar {
	if c == nil || len(c.Rules) == 0 {
		return g
	}
	facts := slices.Concat(g.context, c.Rules)
	if preds, ok := factPredicates(facts); ok && !g.annotationsTouch(preds) {
		statContextShared.Inc()
		return &Grammar{CFG: g.CFG, Annotations: g.Annotations, AnnLines: g.AnnLines,
			context: facts, ctxPreds: preds}
	}
	statContextCopied.Inc()
	return g.withCopies(c.Rules)
}

// factPredicates returns the predicates of rules when every rule is a
// ground fact over an unannotated predicate.
func factPredicates(rules []asp.Rule) (map[string]struct{}, bool) {
	preds := make(map[string]struct{}, len(rules))
	for _, r := range rules {
		if !r.IsFact() {
			return nil, false
		}
		if _, _, annotated := decodeAnn(r.Head.Predicate); annotated {
			return nil, false
		}
		preds[r.Head.Predicate] = struct{}{}
	}
	return preds, true
}

// annotationsTouch reports whether some annotation rule defines or reads
// through @i a predicate of preds.
func (g *Grammar) annotationsTouch(preds map[string]struct{}) bool {
	for _, p := range g.Annotations {
		if p == nil {
			continue
		}
		for _, r := range p.Rules {
			if touchesContext(r, preds) {
				return true
			}
		}
	}
	return false
}

// withCopies returns the grammar with its shared context, then extra,
// appended to every production's annotation: G(C) with a per-node copy
// of C, each annotation built in one exact-size allocation.
func (g *Grammar) withCopies(extra []asp.Rule) *Grammar {
	ann := make([]*asp.Program, len(g.Annotations))
	for i, p := range g.Annotations {
		var rules []asp.Rule
		if p != nil {
			rules = p.Rules
		}
		ann[i] = &asp.Program{Rules: slices.Concat(rules, g.context, extra)}
	}
	return &Grammar{CFG: g.CFG, Annotations: ann, AnnLines: slices.Clone(g.AnnLines)}
}

// HypothesisRule is a learnable annotation rule attached to a specific
// production (an element of the hypothesis space S_M of Definition 3).
type HypothesisRule struct {
	Rule   asp.Rule
	ProdID int
}

func (h HypothesisRule) String() string {
	return fmt.Sprintf("[prod %d] %s", h.ProdID, DisplayRule(h.Rule))
}

// Cost is the rule's length: 1 for the head plus 1 per body literal.
// Matches the minimality objective of ILASP-style learning.
func (h HypothesisRule) Cost() int {
	c := len(h.Rule.Body)
	if h.Rule.Head != nil || len(h.Rule.Choice) > 0 {
		c++
	}
	if c == 0 {
		c = 1
	}
	return c
}

// WithHypothesis returns G : H — the grammar extended by adding each
// hypothesis rule to its production's annotation. A shared context stays
// shared unless some rule of H breaks its condition (see Localizes); then
// G : H copies the context into every production, as G(C) would have.
func (g *Grammar) WithHypothesis(h []HypothesisRule) (*Grammar, error) {
	shared := true
	for _, hr := range h {
		if hr.ProdID < 0 || hr.ProdID >= len(g.Annotations) {
			return nil, fmt.Errorf("asg: hypothesis rule for unknown production %d", hr.ProdID)
		}
		if err := validateAnnotation(g.CFG.Productions[hr.ProdID], asp.NewProgram(hr.Rule)); err != nil {
			return nil, err
		}
		shared = shared && g.Localizes(hr.Rule)
	}
	var out *Grammar
	if shared {
		out = g.Clone()
	} else {
		out = g.withCopies(nil)
	}
	for _, hr := range h {
		if out.Annotations[hr.ProdID] == nil {
			out.Annotations[hr.ProdID] = asp.NewProgram()
		}
		out.Annotations[hr.ProdID].Add(hr.Rule)
	}
	return out, nil
}

// Generated is one element of the (bounded) language of an ASG.
type Generated struct {
	Tokens []string
	Tree   *cfg.Tree
}

// Text returns the generated tokens joined by spaces.
func (g Generated) Text() string { return strings.Join(g.Tokens, " ") }

// GenerateOptions bounds ASG language enumeration.
type GenerateOptions struct {
	// MaxNodes bounds derivation tree size.
	MaxNodes int
	// MaxStrings caps the number of *valid* strings returned
	// (0 = unlimited within MaxNodes).
	MaxStrings int
}

// Generate enumerates the strings of L(G) derivable with trees of at most
// MaxNodes nodes: it enumerates CFG derivation trees and keeps those
// whose tree program has an answer set. Duplicate strings (from distinct
// trees) are suppressed.
func (g *Grammar) Generate(opts GenerateOptions) ([]Generated, error) {
	var (
		out      []Generated
		seen     = make(map[string]struct{})
		firstErr error
	)
	g.CFG.Generate(cfg.GenerateOptions{MaxNodes: opts.MaxNodes}, func(t *cfg.Tree) bool {
		text := t.Text()
		if _, dup := seen[text]; dup {
			return true
		}
		ok, err := g.TreeValid(t)
		if err != nil {
			firstErr = err
			return false
		}
		if ok {
			seen[text] = struct{}{}
			out = append(out, Generated{Tokens: t.Tokens(), Tree: t})
			if opts.MaxStrings > 0 && len(out) >= opts.MaxStrings {
				return false
			}
		}
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// DisplayRule renders a rule in the intermediate encoding back in `a@i`
// surface syntax.
func DisplayRule(r asp.Rule) string {
	display := func(a asp.Atom) string {
		name, child, ok := decodeAnn(a.Predicate)
		s := asp.Atom{Predicate: name, Args: a.Args}.String()
		if ok {
			s += "@" + strconv.Itoa(child)
		}
		return s
	}
	var head string
	switch {
	case len(r.Choice) > 0:
		parts := make([]string, len(r.Choice))
		for i, a := range r.Choice {
			parts[i] = display(a)
		}
		head = "{" + strings.Join(parts, "; ") + "}"
	case r.Head != nil:
		head = display(*r.Head)
	}
	if len(r.Body) == 0 {
		return head + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		switch {
		case l.IsCmp:
			parts[i] = l.String()
		case l.Negated:
			parts[i] = "not " + display(l.Atom)
		default:
			parts[i] = display(l.Atom)
		}
	}
	if head == "" {
		return ":- " + strings.Join(parts, ", ") + "."
	}
	return head + " :- " + strings.Join(parts, ", ") + "."
}

// String renders the ASG in its source syntax.
func (g *Grammar) String() string {
	var sb strings.Builder
	for i, p := range g.CFG.Productions {
		sb.WriteString(p.String())
		var rules []asp.Rule
		if i < len(g.Annotations) && g.Annotations[i] != nil {
			rules = g.Annotations[i].Rules
		}
		// A shared context renders under every production, as G(C)
		// reads it.
		if len(rules)+len(g.context) > 0 {
			sb.WriteString(" {\n")
			for _, r := range slices.Concat(rules, g.context) {
				sb.WriteString("  ")
				sb.WriteString(DisplayRule(r))
				sb.WriteByte('\n')
			}
			sb.WriteString("}")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
