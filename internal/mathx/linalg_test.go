package mathx

import "testing"

func TestSolveAugmentedShapeErrors(t *testing.T) {
	if err := SolveAugmented(make([]float64, 5), make([]float64, 2)); err != ErrLengthMismatch {
		t.Errorf("augmented shape err = %v, want ErrLengthMismatch", err)
	}
}
