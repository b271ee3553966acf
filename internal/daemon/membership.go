package daemon

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
)

// Membership defaults, used when MembershipConfig fields are zero.
const (
	// DefaultHeartbeat is the liveness-probe cadence.
	DefaultHeartbeat = 2 * time.Second
	// DefaultPullEvery is the aggregate-rebuild (snapshot pull) cadence.
	DefaultPullEvery = 10 * time.Second
	// DefaultMaxMisses is how many consecutive probe failures mark a
	// worker down.
	DefaultMaxMisses = 3
	// DefaultPullRetries is how many snapshot fetch attempts each worker
	// gets per pull round.
	DefaultPullRetries = 3
	// DefaultPullBackoff is the delay before the first snapshot retry;
	// it doubles per attempt.
	DefaultPullBackoff = 100 * time.Millisecond
)

// MemberInfo is one worker's membership record as served by
// GET /v1/members.
type MemberInfo struct {
	// Addr is the worker's base URL as registered.
	Addr string `json:"addr"`
	// Alive is false once the worker has missed MaxMisses consecutive
	// heartbeats; it flips back on the first successful probe.
	Alive bool `json:"alive"`
	// Misses counts consecutive failed probes.
	Misses int `json:"misses"`
	// LastSeen is the wall-clock time of the last successful probe.
	LastSeen time.Time `json:"last_seen,omitempty"`
	// LastPull is the wall-clock time of the last successful snapshot
	// pull.
	LastPull time.Time `json:"last_pull,omitempty"`
	// HasSnapshot reports whether the coordinator holds a snapshot for
	// this worker. A down worker's last snapshot keeps contributing to
	// the aggregate until the worker returns.
	HasSnapshot bool `json:"has_snapshot"`
}

// member pairs the served record with the worker's last good snapshot
// and the ingest total the worker reported alongside it (the
// gsumd_aggregate_ingested_updates gauge sums these at each rebuild).
type member struct {
	info     MemberInfo
	snap     []byte
	ingested uint64
}

// MembershipConfig parameterizes the coordinator's heartbeat and
// auto-pull loops. Zero fields take the Default* constants; a zero
// Timeout takes DefaultTimeout.
type MembershipConfig struct {
	Heartbeat time.Duration
	PullEvery time.Duration
	MaxMisses int
	Retries   int
	Backoff   time.Duration
	// Timeout bounds every probe and snapshot request individually, so
	// one hung worker delays a round by at most Timeout instead of
	// stalling the loop forever.
	Timeout time.Duration
	// Logf (nil = silent) receives one line per state transition and
	// per failed pull.
	Logf func(format string, args ...interface{})
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.PullEvery <= 0 {
		c.PullEvery = DefaultPullEvery
	}
	if c.MaxMisses <= 0 {
		c.MaxMisses = DefaultMaxMisses
	}
	if c.Retries <= 0 {
		c.Retries = DefaultPullRetries
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultPullBackoff
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// Membership is the coordinator-side worker registry: workers announce
// themselves via POST /v1/register (or are seeded from -pull-from), the
// heartbeat loop probes each one through the Spec-fingerprint handshake
// (liveness and drift in one check), and the pull loop periodically
// fetches every live worker's snapshot and rebuilds the coordinator's
// aggregate from the full set — replace, not accumulate, so repeated
// pulls never double-count a worker's stream.
//
// Every Server carries a Membership (registration always works); the
// loops only run after Start. ProbeAll and PullAll work before Start
// too, with the default MembershipConfig.
type Membership struct {
	srv *Server

	mu      sync.Mutex
	members map[string]*member

	loopMu sync.Mutex
	cfg    MembershipConfig // resolved (withDefaults) from construction on
	stop   chan struct{}
	done   chan struct{}
}

func newMembership(srv *Server) *Membership {
	return &Membership{srv: srv, members: make(map[string]*member),
		cfg: MembershipConfig{}.withDefaults()}
}

// config returns the current configuration. Start replaces it under
// loopMu while other goroutines may be probing or pulling.
func (m *Membership) config() MembershipConfig {
	m.loopMu.Lock()
	defer m.loopMu.Unlock()
	return m.cfg
}

// Membership returns the server's worker registry.
func (s *Server) Membership() *Membership { return s.members }

// Add registers a worker base URL (idempotent). New members start
// alive; the first missed heartbeats will demote them.
func (m *Membership) Add(addr string) error {
	u, err := url.Parse(addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("daemon: register: %q is not an absolute base URL", addr)
	}
	m.mu.Lock()
	if _, ok := m.members[addr]; !ok {
		m.members[addr] = &member{info: MemberInfo{Addr: addr, Alive: true}}
	}
	m.mu.Unlock()
	m.updateGauges()
	return nil
}

// Members returns the registry sorted by address.
func (m *Membership) Members() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberInfo, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, mem.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Start launches the heartbeat and auto-pull loops. It is a no-op if
// the loops are already running.
func (m *Membership) Start(cfg MembershipConfig) {
	m.loopMu.Lock()
	defer m.loopMu.Unlock()
	if m.stop != nil {
		return
	}
	m.cfg = cfg.withDefaults()
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.run(m.cfg, m.stop, m.done)
}

// Stop halts the loops and waits for them to drain. Idempotent.
func (m *Membership) Stop() {
	m.loopMu.Lock()
	defer m.loopMu.Unlock()
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop, m.done = nil, nil
}

// run is the loop goroutine. It takes its configuration and channels as
// arguments rather than reading them under loopMu, which Stop holds
// while it waits for run to return.
func (m *Membership) run(cfg MembershipConfig, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	beat := time.NewTicker(cfg.Heartbeat)
	defer beat.Stop()
	pull := time.NewTicker(cfg.PullEvery)
	defer pull.Stop()
	for {
		select {
		case <-beat.C:
			m.probeAll(cfg)
		case <-pull.C:
			if err := m.pullAll(cfg); err != nil {
				cfg.Logf("membership: pull: %v", err)
			}
		case <-stop:
			return
		}
	}
}

// memberClient returns a per-member client whose every request carries the
// configured deadline.
func memberClient(addr string, cfg MembershipConfig) *Client {
	return NewClient(addr, &http.Client{Timeout: cfg.Timeout})
}

// ProbeAll heartbeats every member once through the Spec-fingerprint
// handshake and updates alive/miss state. A drifted worker (409) counts
// as a miss like a dead one: its snapshots would be refused anyway, and
// the log line says why.
func (m *Membership) ProbeAll() { m.probeAll(m.config()) }

func (m *Membership) probeAll(cfg MembershipConfig) {
	for _, addr := range m.addrs() {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		err := memberClient(addr, cfg).CheckSpecContext(ctx, m.srv.fp)
		cancel()
		m.mu.Lock()
		mem, ok := m.members[addr]
		if !ok {
			m.mu.Unlock()
			continue
		}
		if err == nil {
			if !mem.info.Alive {
				cfg.Logf("membership: worker %s is back", addr)
				m.srv.obs.memberUp.Inc()
			}
			mem.info.Alive = true
			mem.info.Misses = 0
			mem.info.LastSeen = time.Now()
		} else {
			mem.info.Misses++
			if mem.info.Alive && mem.info.Misses >= cfg.MaxMisses {
				mem.info.Alive = false
				cfg.Logf("membership: worker %s marked down after %d misses (last: %v)",
					addr, mem.info.Misses, err)
				m.srv.obs.memberDown.Inc()
			}
		}
		m.mu.Unlock()
	}
	m.updateGauges()
}

// updateGauges refreshes the membership size gauges from the registry.
func (m *Membership) updateGauges() {
	m.mu.Lock()
	total, alive := len(m.members), 0
	for _, mem := range m.members {
		if mem.info.Alive {
			alive++
		}
	}
	m.mu.Unlock()
	m.srv.obs.membersTotal.Set(float64(total))
	m.srv.obs.membersAlive.Set(float64(alive))
}

// PullAll fetches a snapshot from every live member (with per-request
// deadlines and exponential-backoff retries), keeps each member's last
// good snapshot, and rebuilds the coordinator's aggregate from the full
// snapshot set. Because the rebuild starts from a fresh estimator, a
// pull round is idempotent: pulling an unchanged fleet twice yields the
// same aggregate, and a worker that restarted from its checkpoint is
// simply re-read. Down members contribute their last-known snapshot, so
// a crashed worker's checkpointed stream prefix stays in the estimate
// while it restarts.
func (m *Membership) PullAll() error { return m.pullAll(m.config()) }

func (m *Membership) pullAll(cfg MembershipConfig) (err error) {
	defer func() {
		if err != nil {
			m.srv.obs.pullErr.Inc()
		} else {
			m.srv.obs.pullOK.Inc()
		}
	}()
	for _, addr := range m.addrs() {
		m.mu.Lock()
		mem, ok := m.members[addr]
		alive := ok && mem.info.Alive
		m.mu.Unlock()
		if !alive {
			continue
		}
		snap, ingested, err := fetchSnapshot(addr, cfg)
		m.mu.Lock()
		if mem, ok := m.members[addr]; ok {
			if err == nil {
				mem.snap = snap
				mem.ingested = ingested
				mem.info.HasSnapshot = true
				mem.info.LastPull = time.Now()
			} else {
				cfg.Logf("membership: pull %s: %v (keeping last snapshot)", addr, err)
			}
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	snaps := make([][]byte, 0, len(m.members))
	var ingested uint64
	for _, mem := range m.members {
		if mem.info.HasSnapshot {
			snaps = append(snaps, mem.snap)
			ingested += mem.ingested
		}
	}
	m.mu.Unlock()
	if len(snaps) == 0 {
		return nil
	}
	start := time.Now()
	err = m.srv.rebuildFrom(snaps)
	m.srv.obs.rebuildSeconds.Observe(time.Since(start).Seconds())
	if err == nil {
		// The gauge moves only on a successful rebuild, so it reports
		// what is actually inside the aggregate. Worker ingest counters
		// are monotone, and a rebuild folds every retained snapshot
		// exactly once — so this gauge is monotone too, and the soak
		// harness asserts exactly that from the scrape.
		m.srv.obs.aggregateIngested.Set(float64(ingested))
	}
	return err
}

// fetchSnapshot pulls one worker's snapshot with retries: each attempt
// has its own deadline, and the delay between attempts doubles from
// cfg.Backoff. Alongside the snapshot it reads the worker's ingest
// total from /v1/config — the per-member figure behind the
// gsumd_aggregate_ingested_updates gauge. The config read is taken
// BEFORE the snapshot, so the recorded total never exceeds what the
// snapshot contains and the gauge stays a lower bound on aggregated
// updates (and therefore monotone). It makes at least one attempt
// whatever cfg.Retries says, so it can report success only for a
// snapshot it actually fetched.
func fetchSnapshot(addr string, cfg MembershipConfig) ([]byte, uint64, error) {
	c := memberClient(addr, cfg)
	var lastErr error
	delay := cfg.Backoff
	for attempt := 0; attempt == 0 || attempt < cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		info, err := c.ConfigContext(ctx)
		var snap []byte
		if err == nil {
			snap, err = c.SnapshotContext(ctx)
		}
		cancel()
		if err == nil {
			return snap, info.Ingested, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

// addrs snapshots the member addresses so loops iterate without holding
// the lock across network calls.
func (m *Membership) addrs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members))
	for addr := range m.members {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// rebuildFrom replaces the server's estimator with a fresh one holding
// exactly the merge of the given snapshots. For the window kind the
// fresh estimator is advanced to the live clock first so the snapshots'
// tick checks line up. The swap happens only if every snapshot decodes;
// one bad snapshot aborts the round with the old aggregate intact.
//
// A coordinator running auto-pull is a query surface: state it absorbed
// through direct /v1/ingest or /v1/merge calls is superseded at the
// next rebuild (the ingest counter tracks direct ingests only and is
// left untouched).
func (s *Server) rebuildFrom(snaps [][]byte) error {
	fresh, err := backend.Open(s.spec)
	if err != nil {
		return fmt.Errorf("daemon: rebuild: %w", err)
	}
	s.mu.Lock()
	if win, ok := s.est.(backend.Windowed); ok {
		fresh.(backend.Windowed).Advance(win.Now())
	}
	s.mu.Unlock()
	for _, snap := range snaps {
		if err := fresh.UnmarshalBinary(snap); err != nil {
			return fmt.Errorf("daemon: rebuild: %w", err)
		}
	}
	s.mu.Lock()
	s.est = fresh
	s.mu.Unlock()
	return nil
}

// RegisterRequest is the POST /v1/register body: the worker's base URL
// as reachable from the coordinator.
type RegisterRequest struct {
	Addr string `json:"addr"`
}
