package schedulers

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/simulator"
)

// ErrUnknown is wrapped by New for names absent from the registry; match
// it with errors.Is.
var ErrUnknown = errors.New("schedulers: unknown scheduler")

// Config carries the policy-independent knobs a scheduler factory may use.
// Factories ignore fields that do not apply to their policy.
type Config struct {
	// Seed drives any scheduler-internal randomness.
	Seed int64
	// ArrivalRate is the trace's job arrival rate λ (ONES's scale-down
	// penalty is derived from it).
	ArrivalRate float64
	// Population overrides ONES's population size K (0 ⇒ cluster size).
	Population int
	// MutationRate overrides ONES's θ (0 ⇒ default).
	MutationRate float64
	// Parallelism bounds scheduler-internal fan-out (ONES's evolution
	// loop; 0 ⇒ GOMAXPROCS). Purely a performance knob: results are
	// identical at any setting.
	Parallelism int
	// Obs, when non-nil, receives scheduler-internal telemetry (ONES's
	// evolution generation/candidate counters and throughput-memo hit
	// ratio). Out of band only: results are byte-identical with or
	// without it.
	Obs *obs.Registry
	// Span, when non-nil, is the parent span scheduler-internal tracing
	// hangs off (ONES records evolution-interval child spans). Out of
	// band only, like Obs.
	Span *obs.Span
}

// Factory constructs one scheduler instance from a Config.
type Factory func(cfg Config) simulator.Scheduler

// Factories holds the registered scheduler factories by flag-facing
// name; add to it through Register.
var Factories = registry.New[Factory]("schedulers", ErrUnknown)

// Register adds a named scheduler factory. Names are the flag-facing
// lowercase identifiers ("ones", "drl", …). An empty, duplicate or nil
// registration panics: two policies silently shadowing each other would
// corrupt experiments.
func Register(name string, f Factory) {
	if f == nil {
		panic(fmt.Sprintf("schedulers: Register %q with nil factory", name))
	}
	Factories.Register(name, f)
}

// New constructs the named scheduler, or errors listing the known names.
func New(name string, cfg Config) (simulator.Scheduler, error) {
	f, err := Factories.Get(name)
	if err != nil {
		return nil, err
	}
	return f(cfg), nil
}

func init() {
	Register("ones", func(cfg Config) simulator.Scheduler {
		o := NewONES(cfg.Seed, cfg.ArrivalRate)
		if cfg.Population > 0 {
			o.PopulationSize = cfg.Population
		}
		if cfg.MutationRate > 0 {
			o.MutationRate = cfg.MutationRate
		}
		o.Parallelism = cfg.Parallelism
		o.Obs = cfg.Obs
		o.Span = cfg.Span
		return o
	})
	Register("drl", func(cfg Config) simulator.Scheduler { return NewDRL(cfg.Seed) })
	Register("tiresias", func(cfg Config) simulator.Scheduler { return NewTiresias() })
	Register("optimus", func(cfg Config) simulator.Scheduler { return NewOptimus() })
	Register("fifo", func(cfg Config) simulator.Scheduler { return NewFIFO() })
	Register("sjf", func(cfg Config) simulator.Scheduler { return NewSJF() })
}
