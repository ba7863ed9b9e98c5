package engine_test

import (
	"fmt"

	"tsspace/internal/engine"
	"tsspace/internal/timestamp/sqrt"
)

// Run drives one Algorithm × World × Workload combination into one
// report; Verify checks happens-before over the report's events.
func ExampleRun() {
	rep, err := engine.Run(engine.Config{
		Alg:      sqrt.New(24),
		World:    engine.Atomic,
		N:        24,
		Workload: engine.OneShot{},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(rep.Events), "events, verified:", rep.Verify() == nil)
	// Output: 24 events, verified: true
}
