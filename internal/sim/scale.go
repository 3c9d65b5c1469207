// Scale-harness schedule: a deterministic, DES-generated interleaving of
// repository churn (Put/Remove) and search arrivals, replayed by
// `experiments -run scale` against real broker repositories. The
// Section 5.2 simulator above models whole communities; this schedule
// models the load on ONE broker at far beyond Section 5 scale.
package sim

import (
	"infosleuth/internal/des"
	"infosleuth/internal/stats"
)

// ScaleOpKind is the kind of one scheduled scale-harness operation.
type ScaleOpKind int

// Scale-harness operation kinds.
const (
	// ScalePut (re-)advertises churn agent Index.
	ScalePut ScaleOpKind = iota
	// ScaleRemove unadvertises churn agent Index.
	ScaleRemove
	// ScaleSearch issues the query-stream bucket Index.
	ScaleSearch
)

// String names the kind.
func (k ScaleOpKind) String() string {
	switch k {
	case ScalePut:
		return "put"
	case ScaleRemove:
		return "remove"
	case ScaleSearch:
		return "search"
	default:
		return "scale-op(?)"
	}
}

// ScaleOp is one scheduled operation: at simulated time At, apply Kind
// to churn agent / query bucket Index.
type ScaleOp struct {
	At    des.Time
	Kind  ScaleOpKind
	Index int
}

// ScaleScheduleConfig parameterizes a churn/search schedule.
type ScaleScheduleConfig struct {
	// Seed drives all pseudo-randomness; equal configs yield equal
	// schedules.
	Seed int64
	// Duration is the simulated horizon in seconds.
	Duration des.Time
	// ChurnPerSec is the advertisement mutation rate. Each churn event
	// flips one of ChurnAgents between advertised and not: an agent's
	// first event Puts it, the next Removes it, and so on — so the
	// repository size stays within ChurnAgents of its starting point.
	ChurnPerSec float64
	// SearchPerSec is the query arrival rate; each search draws one of
	// QueryBuckets query-stream buckets.
	SearchPerSec float64
	// ChurnAgents is the pool of distinct flapping agents.
	ChurnAgents int
	// QueryBuckets is the pool of distinct queries (the paper's fixed
	// query streams).
	QueryBuckets int
}

// BuildScaleSchedule runs the two arrival processes (exponential
// inter-arrival churn and search) on a DES kernel and returns the merged,
// time-ordered operation list. Determinism: the kernel fires same-time
// events in scheduling order and the single Source serializes all draws,
// so a given config always produces the same schedule.
func BuildScaleSchedule(cfg ScaleScheduleConfig) []ScaleOp {
	if cfg.ChurnAgents <= 0 {
		cfg.ChurnAgents = 1
	}
	if cfg.QueryBuckets <= 0 {
		cfg.QueryBuckets = 1
	}
	src := stats.NewSource(cfg.Seed)
	sim := des.New()
	var ops []ScaleOp
	advertised := make([]bool, cfg.ChurnAgents)

	var churn, search func()
	churn = func() {
		idx := src.Intn(cfg.ChurnAgents)
		kind := ScalePut
		if advertised[idx] {
			kind = ScaleRemove
		}
		advertised[idx] = !advertised[idx]
		ops = append(ops, ScaleOp{At: sim.Now(), Kind: kind, Index: idx})
		sim.Schedule(src.Exponential(1/cfg.ChurnPerSec), churn)
	}
	search = func() {
		ops = append(ops, ScaleOp{At: sim.Now(), Kind: ScaleSearch, Index: src.Intn(cfg.QueryBuckets)})
		sim.Schedule(src.Exponential(1/cfg.SearchPerSec), search)
	}
	if cfg.ChurnPerSec > 0 {
		sim.Schedule(src.Exponential(1/cfg.ChurnPerSec), churn)
	}
	if cfg.SearchPerSec > 0 {
		sim.Schedule(src.Exponential(1/cfg.SearchPerSec), search)
	}

	// The arrival processes reschedule themselves forever, so the queue
	// never drains: peek the next arrival and stop at the horizon.
	for {
		at, ok := sim.Peek()
		if !ok || at > cfg.Duration {
			break
		}
		sim.Step()
	}
	return ops
}
