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

// minRepairPages is the fewest cached recent pages an auto-repair
// re-learns from (the repairer's hard floor is 2).
const minRepairPages = 4

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
	if o.Log == nil {
		o.Log = log.Default()
	}
	return o
}

// maintainer is the paper's autonomous maintenance loop closed inside the
// serving process: it watches the drift monitor's trips and enqueues
// repair jobs that re-learn a drifted site from the dispatcher's cached
// recent pages — the pages that just failed to extract are exactly the
// fresh corpus a repair needs — so a drifted site heals with no operator
// call. Two triggers feed it: the node's trip hook (Server.onTrip,
// immediate, on the serving worker that observed the tripping page — the
// enqueue is an O(1) channel send) and a periodic scan that retries
// latched trips the hook couldn't act on (rate-limited, queue full, not
// enough pages yet). Only NewNode builds one, and it runs from there until
// the node drains or closes: it is never restarted.
//
// Per-site discipline: at most one auto-repair job in flight, and at most
// one submission per MinGap. A repair that wins validation resets the
// site's trip (the repairer does that); one that loses leaves the trip
// latched, and the scanner retries after the gap — bounded, not frantic.
type maintainer struct {
	server *Server
	opt    MaintainerOptions

	mu       sync.Mutex
	last     map[string]time.Time // site -> last submission
	pending  map[string]string    // site -> active auto job id
	quit     chan struct{}        // closed by stop
	done     chan struct{}        // closed when the scan loop has returned
	stopOnce sync.Once
}

// startMaintainer launches the auto-repair scan loop over a node NewNode
// has checked: it has a repairer and a job plane, and its dispatcher a
// monitor and a recent-page cache.
func startMaintainer(s *Server, opt MaintainerOptions) *maintainer {
	m := &maintainer{
		server:  s,
		opt:     opt.withDefaults(),
		last:    make(map[string]time.Time),
		pending: make(map[string]string),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go m.loop()
	return m
}

// stop disarms auto-repair for good and waits for the scan loop to
// return; the trip hook stays, so trips are still logged and audited.
// Jobs already enqueued keep running; the node's Drain runs them dry.
// Draining and Close both call it: the first call does the work.
func (m *maintainer) stop() {
	m.stopOnce.Do(func() {
		close(m.quit)
		<-m.done
	})
}

func (m *maintainer) loop() {
	defer close(m.done)
	ticker := time.NewTicker(m.opt.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-ticker.C:
			for _, site := range m.server.cfg.Dispatcher.Monitor().Tripped() {
				m.kick(site)
			}
		}
	}
}

// pendingSubmitting marks a site whose submission is in flight but whose
// job id is not known yet.
const pendingSubmitting = "(submitting)"

// kick considers one tripped site for auto-repair, and enqueues nothing
// once the loop has stopped. It is cheap enough for the trip hook's
// serving-worker context: a few map lookups and, at most, one job
// submission.
func (m *maintainer) kick(site string) {
	select {
	case <-m.quit:
		return
	default:
	}
	now := time.Now()
	m.mu.Lock()
	if id, busy := m.pending[site]; busy {
		if id == pendingSubmitting {
			m.mu.Unlock()
			return
		}
		// A job canceled while still queued never runs its cleanup;
		// resolve the slot against the manager's view instead of trusting
		// the runner to have cleared it.
		if s, err := m.server.cfg.Jobs.Get(id); err == nil && !s.State.Terminal() {
			m.mu.Unlock()
			return
		}
		delete(m.pending, site)
	}
	if t, ok := m.last[site]; ok && now.Sub(t) < m.opt.MinGap {
		m.mu.Unlock()
		return
	}
	// Reserve the slot before submitting so a concurrent kick (trip hook
	// racing the scanner) cannot double-enqueue.
	m.pending[site] = pendingSubmitting
	m.mu.Unlock()

	if !m.submit(site, now) {
		m.mu.Lock()
		delete(m.pending, site)
		m.mu.Unlock()
	}
}

func (m *maintainer) submit(site string, now time.Time) bool {
	pages := m.server.cfg.Dispatcher.RecentPages(site)
	if len(pages) < minRepairPages {
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
// mid-run (a job canceled while queued is resolved by kick instead).
func (m *maintainer) clearPending(site string) {
	m.mu.Lock()
	delete(m.pending, site)
	m.mu.Unlock()
}
