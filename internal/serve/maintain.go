package serve

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"autowrap/internal/audit"
	"autowrap/internal/jobs"
)

// MaintainerOptions configures the autonomous repair loop.
type MaintainerOptions struct {
	// Interval is the scan period for latched trips that could not be
	// enqueued at trip time — rate-limited, queue full, too few cached
	// pages (default 2s). The trip hook itself reacts immediately.
	Interval time.Duration
	// MinGap rate-limits repair submissions per site (default 1m): a site
	// whose repair keeps losing validation must not monopolize the learn
	// pool, and a flapping site must not pile up duplicate jobs.
	MinGap time.Duration
	// MinPages is the fewest cached recent pages worth re-learning from
	// (default 4; the repairer's hard floor is 2).
	MinPages int
	// Log receives scanner decisions (default: log.Default()).
	Log *log.Logger
}

func (o MaintainerOptions) withDefaults() MaintainerOptions {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.MinGap <= 0 {
		o.MinGap = time.Minute
	}
	if o.MinPages < 2 {
		o.MinPages = 4
	}
	if o.Log == nil {
		o.Log = log.Default()
	}
	return o
}

// Maintainer is the paper's autonomous maintenance loop closed inside the
// serving process: it watches the drift monitor's trips and enqueues
// repair jobs that re-learn a drifted site from the dispatcher's cached
// recent pages — the pages that just failed to extract are exactly the
// fresh corpus a repair needs — so a drifted site heals with no operator
// call. Two triggers feed it: the monitor's OnTrip hook (immediate, on
// the serving worker that observed the tripping page — the enqueue is an
// O(1) channel send) and a periodic scan that retries latched trips the
// hook couldn't act on (rate-limited, queue full, not enough pages yet).
//
// Per-site discipline: at most one auto-repair job in flight, and at most
// one submission per MinGap. A repair that wins validation resets the
// site's trip (the repairer does that); one that loses leaves the trip
// latched, and the scanner retries after the gap — bounded, not frantic.
type Maintainer struct {
	server *Server
	opt    MaintainerOptions

	mu      sync.Mutex
	last    map[string]time.Time // site -> last submission
	pending map[string]string    // site -> active auto job id
	stop    chan struct{}        // recreated on every Start
	done    chan struct{}
	started bool
}

// NewMaintainer builds the auto-repair loop over a server. The server
// must have a Repairer and a job manager, its dispatcher a Monitor and a
// RecentPages cache — without any one of them there is nothing to watch,
// nothing to enqueue, or nothing to re-learn from.
func NewMaintainer(s *Server, opt MaintainerOptions) (*Maintainer, error) {
	switch {
	case s == nil:
		return nil, fmt.Errorf("serve: maintainer needs a server")
	case s.cfg.Repairer == nil:
		return nil, fmt.Errorf("serve: maintainer needs a repairer (no annotator configured)")
	case s.cfg.Jobs == nil:
		return nil, fmt.Errorf("serve: maintainer needs a job manager")
	case s.cfg.Dispatcher.Monitor() == nil:
		return nil, fmt.Errorf("serve: maintainer needs drift monitoring enabled")
	case s.cfg.Dispatcher.opt.RecentPages <= 0:
		return nil, fmt.Errorf("serve: maintainer needs the dispatcher's recent-page cache (Options.RecentPages > 0)")
	}
	return &Maintainer{
		server:  s,
		opt:     opt.withDefaults(),
		last:    make(map[string]time.Time),
		pending: make(map[string]string),
	}, nil
}

// Start arms auto-repair and launches the scan loop: from here the
// server's trip hook (Server.onTrip — installed now if NewNode has not
// already) kicks this maintainer on every trip. Start is idempotent while
// running, and a stopped maintainer can be started again (the control
// channels are per-Start).
func (m *Maintainer) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	stop, done := m.stop, m.done
	m.mu.Unlock()
	m.server.hookTrips()
	m.server.maint.Store(m)
	go m.loop(stop, done)
}

// Stop disarms auto-repair and stops the scan loop; the trip hook stays,
// so trips are still logged and audited. Jobs already enqueued keep
// running; the process owner drains the job manager.
func (m *Maintainer) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	m.server.maint.CompareAndSwap(m, nil)
	close(stop)
	<-done
}

func (m *Maintainer) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(m.opt.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			for _, site := range m.server.cfg.Dispatcher.Monitor().Tripped() {
				m.Kick(site)
			}
		}
	}
}

// pendingSubmitting marks a site whose submission is in flight but whose
// job id is not known yet.
const pendingSubmitting = "(submitting)"

// Kick considers one tripped site for auto-repair and reports whether a
// job was enqueued. It is cheap enough for the trip hook's serving-worker
// context: a few map lookups and, at most, one job submission.
func (m *Maintainer) Kick(site string) bool {
	now := time.Now()
	m.mu.Lock()
	if id, busy := m.pending[site]; busy {
		if id == pendingSubmitting {
			m.mu.Unlock()
			return false
		}
		// A job canceled while still queued never runs its cleanup;
		// resolve the slot against the manager's view instead of trusting
		// the runner to have cleared it.
		if s, err := m.server.cfg.Jobs.Get(id); err == nil && !s.State.Terminal() {
			m.mu.Unlock()
			return false
		}
		delete(m.pending, site)
	}
	if t, ok := m.last[site]; ok && now.Sub(t) < m.opt.MinGap {
		m.mu.Unlock()
		return false
	}
	// Reserve the slot before submitting so a concurrent Kick (trip hook
	// racing the scanner) cannot double-enqueue.
	m.pending[site] = pendingSubmitting
	m.mu.Unlock()

	enqueued := m.submit(site, now)
	if !enqueued {
		m.mu.Lock()
		delete(m.pending, site)
		m.mu.Unlock()
	}
	return enqueued
}

func (m *Maintainer) submit(site string, now time.Time) bool {
	pages := m.server.cfg.Dispatcher.RecentPages(site)
	if len(pages) < m.opt.MinPages {
		return false // not enough fresh evidence yet; the scanner retries
	}
	snap, err := m.server.cfg.Jobs.Submit(jobs.KindRepair, site,
		func(ctx context.Context, progress func(string)) (any, error) {
			ctx, cancel := context.WithTimeout(ctx, m.server.jobTimeout)
			defer cancel()
			defer m.clearPending(site)
			res, err := m.server.RunMaintenance(ctx, site, pages, progress)
			if err != nil {
				m.opt.Log.Printf("serve: auto-repair %s failed: %v", site, err)
				return nil, err
			}
			m.opt.Log.Printf("serve: auto-repair %s: %s (candidate v%d, serving v%d; stages_us %+v)",
				site, res.ValidationVerdict, res.CandidateVersion, res.ServingVersion, res.StagesUS)
			return res, nil
		})
	if err != nil {
		m.opt.Log.Printf("serve: auto-repair %s not enqueued: %v", site, err)
		return false
	}
	m.server.audit(audit.Entry{Event: audit.EventAutoRepair, Site: site,
		Detail: fmt.Sprintf("job %s: re-learning from %d recent pages", snap.ID, len(pages))})
	m.mu.Lock()
	// The runner may already have finished and cleared the slot; only an
	// occupied slot gets the real job id.
	if _, ok := m.pending[site]; ok {
		m.pending[site] = snap.ID
	}
	m.last[site] = now
	m.mu.Unlock()
	return true
}

// clearPending releases the site's one-auto-job-at-a-time slot. Runs on
// the job worker whether the job succeeded, failed, or was canceled
// mid-run (a job canceled while queued is resolved by Kick instead).
func (m *Maintainer) clearPending(site string) {
	m.mu.Lock()
	delete(m.pending, site)
	m.mu.Unlock()
}
