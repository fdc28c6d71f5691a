//go:build race

package core_test

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation allocates and so voids allocation budgets.
const raceEnabled = true
