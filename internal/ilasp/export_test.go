package ilasp

// Vectorize builds the coverage signatures of a task's space at the
// given width, as Learn (strict false) or LearnIndependent (strict true)
// does, for the external tests. The signatures come back as an opaque
// value for reflect.DeepEqual.
func Vectorize(t *Task, width int, strict bool) (any, error) {
	space, err := t.space()
	if err != nil {
		return nil, err
	}
	v, err := vectorize(&taskOracle{task: t, space: space}, space, width, strict)
	if err != nil {
		return nil, err
	}
	return v, nil
}
