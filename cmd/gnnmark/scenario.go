package main

import (
	"errors"
	"fmt"

	"gnnmark/internal/scenario"
)

// runScenario implements `gnnmark scenario run|check FILE...`: the CLI
// face of the declarative chaos harness. `check` parses and validates
// without executing; `run` executes each scenario and checks its
// assertions, exiting non-zero with the failed assertion named.
func runScenario(args []string) {
	if len(args) < 2 || (args[0] != "run" && args[0] != "check") {
		usageError("scenario wants run|check FILE...")
	}
	for _, path := range args[1:] {
		sc, err := loadScenario(path)
		fail(err)
		if args[0] == "check" {
			fmt.Printf("ok %s: scenario %q (%d node(s), %d event(s), %d assertion(s))\n",
				path, sc.Name, len(sc.Fleet.Nodes), len(sc.Events), len(sc.Assertions))
			continue
		}
		out, err := scenario.Run(sc)
		if out != nil {
			fmt.Print(out.Summary())
		}
		if err != nil {
			fail(fmt.Errorf("%s: %w", path, err))
		}
		fmt.Printf("pass %s: %d assertion(s) held\n", path, len(sc.Assertions))
	}
}

// loadScenario parses and validates one scenario file, stamping the path
// onto validation errors so every failure reads "file:line: message".
func loadScenario(path string) (*scenario.Scenario, error) {
	sc, err := scenario.ParseFile(path)
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		var pe *scenario.ParseError
		if errors.As(err, &pe) && pe.File == "" {
			pe.File = path
		}
		return nil, err
	}
	return sc, nil
}
