package nitro_test

import (
	"fmt"

	"nitro"
)

// Example shows the complete expert-programmer flow from the paper's Fig. 2
// and Fig. 3: register variants and features, tune offline, dispatch
// adaptively.
func Example() {
	type workload struct{ Size float64 }

	cx := nitro.NewContext()
	cv := nitro.NewCodeVariant[workload](cx, nitro.DefaultPolicy("demo"))
	// Variants return their own cost (the paper's operator() convention).
	cv.AddVariant("small-opt", func(w workload) float64 { return 1 + w.Size })
	cv.AddVariant("large-opt", func(w workload) float64 { return 31 - w.Size })
	if err := cv.SetDefault("small-opt"); err != nil {
		panic(err)
	}
	cv.AddInputFeature(nitro.Feature[workload]{
		Name: "size",
		Eval: func(w workload) float64 { return w.Size },
	})

	// Offline tuning: exhaustive search labels each training input, then an
	// SVM learns the boundary.
	var train []workload
	for s := 0.0; s <= 30; s++ {
		train = append(train, workload{Size: s})
	}
	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{})
	if _, err := tuner.Tune(train); err != nil {
		panic(err)
	}

	// Deployment: each call selects per input.
	_, chosen, _ := cv.Call(workload{Size: 3})
	fmt.Println("size 3 ->", chosen)
	_, chosen, _ = cv.Call(workload{Size: 28})
	fmt.Println("size 28 ->", chosen)
	// Output:
	// size 3 -> small-opt
	// size 28 -> large-opt
}
