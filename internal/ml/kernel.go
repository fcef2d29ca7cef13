package ml

import (
	"fmt"
	"math"
)

// Kernel is a positive-semidefinite similarity function between feature
// vectors, used by the SVM.
type Kernel interface {
	// Eval returns K(a, b).
	Eval(a, b []float64) float64
	// Name identifies the kernel for serialization.
	Name() string
}

// RBFKernel is the radial-basis-function (Gaussian) kernel
// K(a,b) = exp(-gamma * ||a-b||^2), the paper's default.
type RBFKernel struct {
	Gamma float64 `json:"gamma"`
}

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	return math.Exp(-k.Gamma * d2)
}

// Name implements Kernel.
func (k RBFKernel) Name() string { return "rbf" }

// LinearKernel is K(a,b) = a . b.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Name implements Kernel.
func (LinearKernel) Name() string { return "linear" }

// kernelSpec is the serializable description of a kernel.
type kernelSpec struct {
	Kind  string  `json:"kind"`
	Gamma float64 `json:"gamma,omitempty"`
}

func specOf(k Kernel) kernelSpec {
	switch kk := k.(type) {
	case RBFKernel:
		return kernelSpec{Kind: "rbf", Gamma: kk.Gamma}
	case LinearKernel:
		return kernelSpec{Kind: "linear"}
	default:
		return kernelSpec{Kind: k.Name()}
	}
}

func (s kernelSpec) kernel() (Kernel, error) {
	switch s.Kind {
	case "rbf":
		return RBFKernel{Gamma: s.Gamma}, nil
	case "linear":
		return LinearKernel{}, nil
	default:
		return nil, fmt.Errorf("ml: unknown kernel %q", s.Kind)
	}
}
