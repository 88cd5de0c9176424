package ones

import (
	"repro/internal/autoscale"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/schedulers"
)

// Typed sentinel errors. Errors returned by New, Session methods and
// GenerateTrace wrap these; match them with errors.Is. The returned
// error text additionally lists the known names.
var (
	// ErrUnknownScheduler marks a scheduler name absent from the
	// registry (see Schedulers for the known names).
	ErrUnknownScheduler = schedulers.ErrUnknown
	// ErrUnknownScenario marks a scenario name absent from the registry
	// (see Scenarios). Composed names ("diurnal+spot") report the
	// missing part.
	ErrUnknownScenario = scenario.ErrUnknown
	// ErrIncompatibleScenarios marks a "+"-composed scenario whose parts
	// claim the same dimension of the world (two arrival processes, two
	// failure processes, …).
	ErrIncompatibleScenarios = scenario.ErrIncompatible
	// ErrUnknownAutoscaler marks an autoscaler policy name absent from
	// the registry (see Autoscalers).
	ErrUnknownAutoscaler = autoscale.ErrUnknown
	// ErrUnknownExperiment marks an experiment name absent from the
	// registry (see Experiments).
	ErrUnknownExperiment = engine.ErrUnknownExperiment
)
