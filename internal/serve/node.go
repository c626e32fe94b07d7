package serve

import (
	"fmt"
	"log"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/drift"
	"autowrap/internal/jobs"
	"autowrap/internal/shard"
	"autowrap/internal/store"
)

// NodeConfig is what one node is built from: its slice of the registry
// plus the options its parts already take, under the names they have
// there. A node is the unit every deployment repeats — once standalone,
// once per partition in a fleet (`-shards N`, or one `-role shard` process
// each) — so none of these fields is specific to a role.
type NodeConfig struct {
	// Store is the node's partition of the registry: all of it standalone,
	// what the ring assigns shard Shard in a fleet. Required.
	Store *store.Store

	// Workers and RecentPages are the dispatcher's Options. The
	// recent-page ring exists to fuel auto-repair: without Maintainer
	// nothing reads it and the node does not keep one.
	Workers     int
	RecentPages int
	// Monitor is the drift policy the node's monitor runs; nil disables
	// monitoring. Its OnTrip is the node's own (see Server.onTrip).
	Monitor *drift.Policy
	// Gate sizes admission control of POST /v1/extract.
	Gate GateOptions
	// Spec is the re-learning recipe behind POST /v1/learn, POST /v1/repair
	// and auto-repair. Nil leaves the maintenance plane off: both routes
	// answer 501 and the node runs no job workers.
	Spec drift.LearnSpec
	// Jobs sizes the job plane (used only with Spec). Inside a ring give
	// each node its own IDPrefix so that job ids are unique fleet-wide.
	Jobs jobs.Options
	// Maintainer, when set, arms auto-repair: the node starts the loop and
	// stops it when it begins to drain. It needs Spec, Monitor and
	// RecentPages > 0.
	Maintainer *MaintainerOptions

	// The rest are ServerConfig's fields of the same names.
	Shard           int
	Ring            *shard.Ring
	Backend         store.Backend
	Audit           *audit.Ledger
	Log             *log.Logger
	RequestTimeout  time.Duration
	MaxPages        int
	LearnCorpusRoot string
}

// NewNode assembles one complete node — the only assembly the daemon's
// roles and the soak harness use — in the order its parts depend on each
// other: drift monitor, dispatcher over the store partition, admission
// gate, repairer and job plane (with Spec), the Server over all of them,
// the trip hook (a method of that Server, installed for the node's whole
// life), and last the auto-repair maintainer, started. The returned
// Server owns the job workers and the maintainer: SetDraining(true) stops
// the maintainer, Drain runs the job plane dry, Close releases whatever is
// left. Mount Handler, or hand the Server to NewShardRouter's build.
func NewNode(cfg NodeConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: NodeConfig.Store is required")
	}
	var mon *drift.Monitor
	if cfg.Monitor != nil {
		mon = drift.NewMonitor(*cfg.Monitor)
	}
	opt := Options{Workers: cfg.Workers, Monitor: mon}
	if cfg.Maintainer != nil {
		opt.RecentPages = cfg.RecentPages
	}
	sc := ServerConfig{
		Dispatcher:      NewDispatcher(cfg.Store, opt),
		Gate:            NewGate(cfg.Gate),
		RequestTimeout:  cfg.RequestTimeout,
		MaxPages:        cfg.MaxPages,
		LearnCorpusRoot: cfg.LearnCorpusRoot,
		Backend:         cfg.Backend,
		Shard:           cfg.Shard,
		Ring:            cfg.Ring,
		Audit:           cfg.Audit,
		Log:             cfg.Log,
	}
	if cfg.Spec != nil {
		sc.Repairer = &drift.Repairer{Store: cfg.Store, Spec: cfg.Spec, Monitor: mon}
		sc.Jobs = jobs.New(cfg.Jobs)
	}
	s, err := NewServer(sc)
	if err != nil {
		return nil, err
	}
	s.ownJobs = sc.Jobs != nil
	s.hookTrips()
	if cfg.Maintainer != nil {
		m, err := NewMaintainer(s, *cfg.Maintainer)
		if err != nil {
			s.Close()
			return nil, err
		}
		m.Start()
	}
	return s, nil
}
