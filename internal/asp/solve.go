package asp

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"agenp/internal/obs"
)

// AnswerSet is a stable model: the set of true ground atoms.
type AnswerSet struct {
	atoms map[string]Atom

	sortOnce sync.Once
	sorted   []Atom
}

// NewAnswerSet builds an answer set from atoms.
func NewAnswerSet(atoms ...Atom) *AnswerSet {
	as := &AnswerSet{atoms: make(map[string]Atom, len(atoms))}
	for _, a := range atoms {
		as.atoms[a.Key()] = a
	}
	return as
}

// Contains reports whether the atom is in the answer set.
func (as *AnswerSet) Contains(a Atom) bool {
	_, ok := as.atoms[a.Key()]
	return ok
}

// ContainsKey reports membership by an atom's key (Atom.Key).
func (as *AnswerSet) ContainsKey(key string) bool {
	_, ok := as.atoms[key]
	return ok
}

// Len returns the number of atoms.
func (as *AnswerSet) Len() int { return len(as.atoms) }

// Each calls f on every atom, in no particular order and without
// rendering or sorting the model (Atoms does both).
func (as *AnswerSet) Each(f func(Atom)) {
	for _, a := range as.atoms {
		f(a)
	}
}

// Atoms returns the atoms sorted by their textual form. The slice is
// computed once and shared across calls; callers must not modify it.
func (as *AnswerSet) Atoms() []Atom {
	as.sortOnce.Do(func() {
		type keyed struct {
			s string
			a Atom
		}
		ks := make([]keyed, 0, len(as.atoms))
		for _, a := range as.atoms {
			ks = append(ks, keyed{s: a.String(), a: a})
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].s < ks[j].s })
		as.sorted = make([]Atom, len(ks))
		for i, k := range ks {
			as.sorted[i] = k.a
		}
	})
	return as.sorted
}

// AtomsOf returns the atoms with the given predicate, sorted.
func (as *AnswerSet) AtomsOf(pred string) []Atom {
	var out []Atom
	for _, a := range as.atoms {
		if a.Predicate == pred {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (as *AnswerSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, a := range as.Atoms() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// SolveOptions configures the solver.
type SolveOptions struct {
	// MaxModels bounds the number of answer sets returned (0 = all).
	MaxModels int

	// MaxDecisions aborts the search after this many branching decisions
	// (0 = unlimited). Guards real-time callers (paper Section III.B).
	MaxDecisions int64

	// Context, when non-nil, cancels the search: the solver checks it
	// once before solving, then on every decision and periodically
	// during propagation, returning the context's error.
	Context context.Context
}

// ErrSearchBudget is returned when MaxDecisions is exhausted.
var ErrSearchBudget = errors.New("asp: solver decision budget exhausted")

// Solve grounds and solves a program, returning up to opts.MaxModels
// answer sets. A program of plain facts (plainFacts) is not grounded:
// its facts are its one answer set.
func Solve(p *Program, opts SolveOptions) ([]*AnswerSet, error) {
	if plainFacts(p) {
		if _, err := solveDecided(verdictModel, len(p.Rules), opts); err != nil {
			return nil, err
		}
		return []*AnswerSet{factModel(p)}, nil
	}
	g, err := Ground(p, GroundingOptions{})
	if err != nil {
		return nil, err
	}
	return SolveGround(g, opts)
}

// HasAnswerSet reports whether the program has at least one answer set.
// A program of plain facts, or one the grounder decided (see
// decideDefinite), is answered without building its answer set.
func HasAnswerSet(p *Program) (bool, error) {
	if plainFacts(p) {
		return solveDecided(verdictModel, len(p.Rules), SolveOptions{})
	}
	g, err := Ground(p, GroundingOptions{})
	if err != nil {
		return false, err
	}
	if g.verdict != verdictOpen {
		return solveDecided(g.verdict, g.NumAtoms(), SolveOptions{})
	}
	models, err := SolveGround(g, SolveOptions{MaxModels: 1})
	if err != nil {
		return false, err
	}
	return len(models) > 0, nil
}

// SolveGround enumerates the stable models of a ground program.
//
// A program the grounder decided (see decideDefinite) returns its one
// model, or none, without clause form or search. Every other program is
// compiled once into its Clark-completion clause form (compile.go) and
// searched by the CDNL engine (cdnl.go): unit propagation, conflict
// learning with backjumping, and, for non-tight programs, an
// unfounded-set check that rejects completion models without
// well-founded support. Each model found is blocked before the search
// continues, so enumeration is deterministic.
func SolveGround(g *GroundProgram, opts SolveOptions) ([]*AnswerSet, error) {
	if g.verdict != verdictOpen {
		sat, err := solveDecided(g.verdict, g.NumAtoms(), opts)
		if err != nil {
			return nil, err
		}
		if !sat {
			return []*AnswerSet{}, nil
		}
		atoms := make([]Atom, 0, len(g.Atoms))
		for _, a := range g.Atoms {
			if !isInternalAtom(a) {
				atoms = append(atoms, a)
			}
		}
		return []*AnswerSet{NewAnswerSet(atoms...)}, nil
	}
	s := solverPool.Get().(*cdnlSolver)
	defer solverPool.Put(s)
	return solveGroundScratch(g, opts, s)
}

// The grounder's verdict on a ground program (GroundProgram.verdict).
const (
	// verdictOpen leaves the program to the CDNL search: some headed
	// rule keeps a negative literal, or Ground did not build it.
	verdictOpen int8 = iota
	// verdictModel: definite, and the grounding domain is its one
	// answer set.
	verdictModel
	// verdictNone: definite, and a constraint instance fires in the
	// grounding domain, so there is no answer set.
	verdictNone
)

// decideDefinite decides a program Ground finalized from rules, when no
// headed rule keeps a negative literal. The grounding domain is the
// least fixpoint of the rule instances with negative literals ignored,
// and the finalized rules drop only negative literals over atoms outside
// the domain; so the domain, which is exactly the program's atom table,
// is then the least model of the headed rules and the only candidate
// answer set. Every body atom lies in the domain, so a constraint
// instance fires in it exactly when it keeps no negative literal.
// Compiled choice rules keep their negative literals and stay open.
func decideDefinite(rules []GroundRule) int8 {
	verdict := verdictModel
	for i := range rules {
		r := &rules[i]
		switch {
		case len(r.NegBody) == 0:
			if r.Head < 0 {
				verdict = verdictNone
			}
		case r.Head >= 0:
			return verdictOpen
		}
	}
	return verdict
}

// plainFacts reports whether every rule of p is a fact over plain ground
// terms (no variable, range or arithmetic). Such a program is definite,
// and its facts are its least model, so it needs neither grounding nor
// search.
func plainFacts(p *Program) bool {
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Head == nil || len(r.Choice) > 0 || len(r.Body) > 0 || !plainArgs(r.Head.Args) {
			return false
		}
	}
	return true
}

// factModel is the answer set of a program of plain facts, as the
// grounded path builds it: one atom per key, the first fact of a key
// wins, source positions are dropped, and the atoms of choice compilation
// stay hidden (isInternalAtom).
func factModel(p *Program) *AnswerSet {
	as := &AnswerSet{atoms: make(map[string]Atom, len(p.Rules))}
	var key []byte
	for i := range p.Rules {
		h := p.Rules[i].Head
		if isInternalAtom(*h) {
			continue
		}
		key = appendAtomKey(key[:0], *h)
		if _, dup := as.atoms[string(key)]; !dup {
			as.atoms[string(key)] = Atom{Predicate: h.Predicate, Args: h.Args}
		}
	}
	return as
}

// solveDecided reports the verdict on a decided program (a plain-fact
// program, or one the grounder decided) under the solve contract and
// telemetry of the CDNL path: a cancelled Context still returns its
// error, and the decision counts as a solve (calls, duration, models, the
// asp.solve span with the program's atom count, or its fact count) and
// in asp.solve.definite.
func solveDecided(verdict int8, atoms int, opts SolveOptions) (bool, error) {
	t0 := time.Now()
	sp := obs.StartSpan("asp.solve")
	var err error
	if opts.Context != nil {
		err = opts.Context.Err()
	}
	sat := err == nil && verdict == verdictModel
	models := 0
	if sat {
		models = 1
	}
	statSolveCalls.Inc()
	statSolveDefinite.Inc()
	statSolveDur.ObserveSince(t0)
	statModelsFound.Add(int64(models))
	if obs.TracingEnabled() {
		sp.SetAttr("atoms", strconv.Itoa(atoms))
		sp.SetAttr("definite", "true")
		sp.SetAttr("models", strconv.Itoa(models))
	}
	sp.End()
	return sat, err
}

// solverPool recycles solver state between solves: the grown per-atom
// and per-clause buffers survive across unrelated solves instead of
// being reallocated per call.
var solverPool = sync.Pool{New: func() any { return &cdnlSolver{} }}

// solveGroundScratch is SolveGround on caller-owned solver state, which
// must not be shared between concurrent solves. A Context cancelled
// before the call fails it before clause form and search, as it fails a
// decided program, even when propagation alone would decide it.
func solveGroundScratch(g *GroundProgram, opts SolveOptions, s *cdnlSolver) ([]*AnswerSet, error) {
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	sp := obs.StartSpan("asp.solve")
	s.init(g, g.clauseForm(), opts)
	err := s.run()
	statSolveCalls.Inc()
	statSolveDur.ObserveSince(t0)
	statDecisions.Add(s.decisions)
	statConflicts.Add(s.conflicts)
	statPropagations.Add(s.propagations)
	statBackjumps.Add(s.backjumps)
	statLearnedNogoods.Add(s.learnedNogoods)
	statModelsFound.Add(int64(len(s.models)))
	if obs.TracingEnabled() {
		sp.SetAttr("atoms", strconv.Itoa(g.NumAtoms()))
		sp.SetAttr("decisions", strconv.FormatInt(s.decisions, 10))
		sp.SetAttr("conflicts", strconv.FormatInt(s.conflicts, 10))
		sp.SetAttr("models", strconv.Itoa(len(s.models)))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	// Detach the models from the solver-resident slice so the next
	// solve on this solver cannot alias them.
	models := make([]*AnswerSet, len(s.models))
	copy(models, s.models)
	return models, nil
}

const (
	vUnknown int8 = 0
	vTrue    int8 = 1
	vFalse   int8 = 2
)

// grow returns s with length n and every element zeroed, reusing the
// backing array when it is large enough. It serves every per-atom,
// per-rule, and per-variable scratch slice in the solving core.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growLists returns s with length n, emptying each inner slice while
// keeping its capacity (the shape watch lists want across solves).
func growLists(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		grown := make([][]int32, n)
		copy(grown, s)
		s = grown
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// isInternalAtom hides atoms introduced by choice-rule compilation.
func isInternalAtom(a Atom) bool {
	return len(a.Predicate) > 8 && a.Predicate[:8] == "_choice_"
}
