package ilasp

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"agenp/internal/asp"
)

// keyBias sets every field of a Bias, and every field of the types it
// holds, to a value a mutation can change.
func keyBias() Bias {
	return Bias{
		Head: []ModeAtom{M("h", Const("c"))},
		Body: []ModeAtom{M("p", Var("n"), Const("c"))},
		Constants: map[string][]asp.Term{
			"c": {asp.Constant{Name: "a"}, asp.Integer{Value: 1},
				asp.Compound{Functor: "f", Args: []asp.Term{asp.Constant{Name: "b"}}}},
		},
		Comparisons: []CmpSpec{{Type: "n", Ops: []asp.CmpOp{asp.CmpLt}, Values: []asp.Term{asp.Integer{Value: 3}}}},
		MaxVars:     1,
		MaxBody:     2,
	}
}

// mutateAt changes the k-th spot, in a depth-first walk of v, and
// reports whether there was one (k counts down). A spot is a string, bool
// or integer, which changes value, or a slice or map, which grows by one
// element; map keys are spots too. Any other kind fails the test, so a
// field of a new kind cannot slip past the walk.
func mutateAt(t *testing.T, v reflect.Value, k *int) bool {
	spot := func() bool {
		*k--
		return *k < 0
	}
	switch v.Kind() {
	case reflect.String:
		if spot() {
			v.SetString(v.String() + "x")
			return true
		}
	case reflect.Bool:
		if spot() {
			v.SetBool(!v.Bool())
			return true
		}
	case reflect.Int:
		if spot() {
			v.SetInt(v.Int() + 1)
			return true
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if mutateAt(t, v.Field(i), k) {
				return true
			}
		}
	case reflect.Slice:
		if spot() {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return true
		}
		for i := 0; i < v.Len(); i++ {
			if mutateAt(t, v.Index(i), k) {
				return true
			}
		}
	case reflect.Map:
		if spot() {
			v.SetMapIndex(reflect.ValueOf("new"), reflect.Zero(v.Type().Elem()))
			return true
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, key := range keys {
			elem := reflect.New(v.Type().Elem()).Elem()
			elem.Set(v.MapIndex(key))
			if spot() {
				v.SetMapIndex(key, reflect.Value{})
				v.SetMapIndex(reflect.ValueOf(key.String()+"x"), elem)
				return true
			}
			if mutateAt(t, elem, k) {
				v.SetMapIndex(key, elem)
				return true
			}
		}
	case reflect.Interface:
		if v.IsNil() {
			return false
		}
		elem := reflect.New(v.Elem().Type()).Elem()
		elem.Set(v.Elem())
		if mutateAt(t, elem, k) {
			v.Set(elem)
			return true
		}
	default:
		t.Fatalf("the walk does not know kind %s (%s): key it and teach the walk", v.Kind(), v.Type())
	}
	return false
}

// TestBiasKeyCoversEveryField: changing any single field of a Bias, at
// any depth (a mode's predicate or argument, a constant, a comparison, a
// flag), or growing any of its slices and maps, changes the memo key. A
// field added to Bias, or to a type it holds, without a place in the key
// fails here.
func TestBiasKeyCoversEveryField(t *testing.T) {
	base := string(keyBias().appendKey(nil))
	if again := string(keyBias().appendKey(nil)); again != base {
		t.Fatal("equal biases have different keys")
	}
	spots := 0
	for ; ; spots++ {
		b := keyBias()
		k := spots
		if !mutateAt(t, reflect.ValueOf(&b).Elem(), &k) {
			break
		}
		if string(b.appendKey(nil)) == base {
			t.Errorf("spot %d: the mutated bias %+v keeps the key", spots, b)
		}
	}
	if spots < 30 {
		t.Fatalf("the walk found only %d spots", spots)
	}
}

// TestBiasKeyOrdersConstantTypes: the key reads the constant pools
// sorted by type, so map iteration order cannot split one bias into
// several memo entries.
func TestBiasKeyOrdersConstantTypes(t *testing.T) {
	b := keyBias()
	for i := 0; i < 20; i++ {
		b.Constants[fmt.Sprintf("t%d", i)] = Constants("x")
	}
	want := string(b.appendKey(nil))
	for i := 0; i < 20; i++ {
		if got := string(b.appendKey(nil)); got != want {
			t.Fatal("the key depends on map iteration order")
		}
	}
}

// TestSpaceMemo: a bias with seen content gets the memoized prepared
// space without a new enumeration, and the memo keeps at most
// spaceMemoCap biases, evicting the oldest.
func TestSpaceMemo(t *testing.T) {
	bias := func(i int) Bias {
		b := keyBias()
		b.Constants["c"] = Constants(fmt.Sprintf("memo%d", i))
		return b
	}
	first, err := biasSpace(bias(0))
	if err != nil {
		t.Fatal(err)
	}
	built := statSpaceBuilt.Value()
	again, err := biasSpace(bias(0))
	if err != nil {
		t.Fatal(err)
	}
	if again != first || statSpaceBuilt.Value() != built {
		t.Fatal("a bias with seen content was enumerated again")
	}
	for i := 1; i <= spaceMemoCap; i++ {
		if _, err := biasSpace(bias(i)); err != nil {
			t.Fatal(err)
		}
	}
	spaceMemo.Lock()
	size, order := len(spaceMemo.spaces), len(spaceMemo.order)
	_, kept := spaceMemo.spaces[string(bias(0).appendKey(nil))]
	spaceMemo.Unlock()
	if size != spaceMemoCap || order != spaceMemoCap {
		t.Fatalf("memo holds %d spaces (%d in order), want %d", size, order, spaceMemoCap)
	}
	if kept {
		t.Fatal("the oldest bias was not evicted")
	}
	if evicted, _ := biasSpace(bias(0)); evicted == first {
		t.Fatal("an evicted bias came back from the memo")
	}
}

// TestGuardAtoms pins which body atoms guard: positive ground atoms of a
// rule with no arithmetic term and no unknown comparison operator; and
// which rules are decided: a plain ground head or none, no comparison or
// negation, body arguments that are variables or plain ground terms, and
// no variable twice.
func TestGuardAtoms(t *testing.T) {
	cases := []struct {
		rule    string
		want    string
		decided bool
	}{
		{"h :- a, b.", "[a b]", true},
		{"h :- a, not b.", "[a]", false},
		{"q(X) :- p(X), r(1).", "[r(1)]", false},
		{"q(X) :- p(X), X > 1, r(f(1)).", "[r(f(1))]", false},
		{":- c, p(2).", "[c p(2)]", true},
		{"q(X) :- p(X).", "[]", false},
		{"q(X + 1) :- p(X), a.", "[]", false},     // arithmetic in the head
		{"h :- p(X), X < 2 + 1, a.", "[]", false}, // arithmetic in a comparison
		{"h :- p(1 + 1), a.", "[]", false},        // arithmetic in a body atom
		{"h(f(1)) :- p(X), r(Y, c), a.", "[a]", true},
		{":- p(X), q.", "[q]", true},
		{"h :- p(X), r(X, c).", "[]", false}, // X in two atoms
		{"h :- r(X, X).", "[]", false},       // X twice in one atom
		{"h :- s(f(X)).", "[]", false},       // a variable inside a compound
	}
	for _, c := range cases {
		prog, err := asp.Parse(c.rule)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(guardAtoms(prog.Rules[0])); got != c.want {
			t.Errorf("guardAtoms(%s) = %s, want %s", c.rule, got, c.want)
		}
		if got := decides(prog.Rules[0]); got != c.decided {
			t.Errorf("decides(%s) = %v, want %v", c.rule, got, c.decided)
		}
	}
	bad := asp.Rule{Body: []asp.Literal{asp.PosLit(asp.NewAtom("a")),
		asp.Cmp(asp.Integer{Value: 1}, asp.CmpOp(0), asp.Integer{Value: 2})}}
	if got := guardAtoms(bad); got != nil {
		t.Errorf("a rule with an unknown comparison operator has guards %v", got)
	}
}
