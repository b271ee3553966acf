package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/daemon"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// The cluster-stream topology and schedule: one coordinator and
// clusterWorkers onepass workers on loopback, one stream-transport
// Pusher per worker.
const (
	clusterWorkers = 2
	// phaseAPasses and phaseBPasses are how many times each phase
	// replays the stream.
	phaseAPasses = 2
	phaseBPasses = 1
	// Phase B's schedule beside the open-loop pushes: worker
	// checkpoints every checkpointEvery from the phase start, queries
	// and scrapes at fixed offsets between them. Together with the
	// configured rate this keeps phase B well below the CPU a 2-vCPU
	// host has left under steal, so its latencies measure the program
	// rather than how busy the host happens to be.
	checkpointEvery = 2 * time.Second
	queryEvery      = time.Second
	queryOffset     = 250 * time.Millisecond
	scrapeEvery     = time.Second
	scrapeOffset    = 600 * time.Millisecond
	// phaseCReads is how many back-to-back reads follow phase B.
	phaseCReads = 4
	// requestTimeout bounds every HTTP call the harness makes.
	requestTimeout = time.Minute
)

// node is one in-process gsumd server on a loopback listener.
type node struct {
	name    string
	srv     *daemon.Server
	httpSrv *http.Server
	client  *daemon.Client
	base    string
	served  chan struct{}
}

func startNode(name string, spec backend.Spec, hc *http.Client, tr *tracer, root, op int64) (*node, error) {
	id := tr.begin("daemon.NewServer", root, op)
	srv, err := daemon.NewServer(spec)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	n := &node{name: name, srv: srv, base: "http://" + l.Addr().String(), served: make(chan struct{})}
	n.httpSrv = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(n.served)
		_ = n.httpSrv.Serve(l) // returns http.ErrServerClosed after Shutdown
	}()
	srv.SetReady(true)
	n.client = daemon.NewClient(n.base, hc)
	return n, nil
}

// stop shuts the HTTP server down, drains open streams, and waits for
// the serve goroutine to return.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.httpSrv.Shutdown(ctx)
	err = errors.Join(err, n.srv.DrainStreams(ctx))
	<-n.served
	return err
}

// cluster is one coordinator, its workers, and a Pusher per worker.
type cluster struct {
	hc      *http.Client
	coord   *node
	workers []*node
	pushers []*daemon.Pusher
	ckpts   []*daemon.Checkpointer
}

// openCluster builds the topology up to ready-to-ingest: servers,
// listeners, membership, and dialed push streams. On error the caller
// still closes what was built.
func openCluster(spec backend.Spec, tr *tracer, root, op int64) (*cluster, error) {
	c := &cluster{hc: &http.Client{Transport: &http.Transport{}, Timeout: requestTimeout}}
	var err error
	if c.coord, err = startNode("coordinator", spec, c.hc, tr, root, op); err != nil {
		return c, err
	}
	for i := 0; i < clusterWorkers; i++ {
		w, err := startNode(fmt.Sprintf("worker%d", i), spec, c.hc, tr, root, op)
		if err != nil {
			return c, err
		}
		c.workers = append(c.workers, w)
		id := tr.begin("daemon.Membership.Add", root, op)
		err = c.coord.srv.Membership().Add(w.base)
		tr.end(id)
		if err != nil {
			return c, err
		}
	}
	// PullAll takes its retry and timeout settings from Start; without
	// Start it makes no attempt and rebuilds from empty snapshots. The
	// loops themselves never fire within a round, so every pull is the
	// harness's own.
	c.coord.srv.Membership().Start(daemon.MembershipConfig{Heartbeat: time.Hour, PullEvery: time.Hour, Timeout: requestTimeout})
	for _, w := range c.workers {
		id := tr.begin("daemon.Client.NewPusher", root, op)
		p, err := w.client.NewPusher(context.Background(), daemon.PusherConfig{Stream: true, MaxBatch: batchSize})
		tr.end(id)
		if err != nil {
			return c, fmt.Errorf("%s: %w", w.name, err)
		}
		c.pushers = append(c.pushers, p)
	}
	return c, nil
}

// close stops everything the cluster started, in dependency order, and
// waits for it.
func (c *cluster) close() error {
	var err error
	for _, p := range c.pushers {
		err = errors.Join(err, p.Close())
	}
	for _, ck := range c.ckpts {
		err = errors.Join(err, ck.Stop())
	}
	for _, n := range c.workers {
		err = errors.Join(err, n.stop())
	}
	if c.coord != nil {
		c.coord.srv.Membership().Stop()
		err = errors.Join(err, c.coord.stop())
	}
	c.hc.CloseIdleConnections()
	return err
}

// each runs fn once per pusher index concurrently and returns the
// first error.
func (c *cluster) each(fn func(i int) error) error {
	errs := make([]error, len(c.pushers))
	var wg sync.WaitGroup
	for i := range c.pushers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// query is one g-SUM read on the cluster: the coordinator pulls every
// worker's snapshot and rebuilds its aggregate (PullAll replaces, so
// repeated pulls never double-count), then answers /v1/estimate.
func (c *cluster) query(rec *recorder, tr *tracer, root, op int64) (float64, error) {
	t := time.Now()
	id := tr.begin("daemon.Membership.PullAll", root, op)
	err := c.coord.srv.Membership().PullAll()
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("pull: %w", err)
	}
	pulled := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	id = tr.begin("daemon.Client.EstimateContext", root, op)
	res, err := c.coord.client.EstimateContext(ctx, nil)
	tr.end(id)
	if err != nil {
		return 0, fmt.Errorf("estimate: %w", err)
	}
	done := time.Now()
	rec.add("pull_ms", ms(pulled.Sub(t)))
	rec.add("daemon_estimate_ms", ms(done.Sub(pulled)))
	rec.add("query_ms", ms(done.Sub(t)))
	v, ok := res.Value()
	if !ok {
		return 0, errors.New("estimate: response carries no estimate")
	}
	return v, nil
}

// scrape fetches and parses one node's /metrics.
func (c *cluster) scrape(n *node) (*metrics.Scrape, error) {
	resp, err := c.hc.Get(n.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", n.name, resp.Status)
	}
	return metrics.Parse(resp.Body)
}

// clusterRound is cluster-stream. Phase A pushes the stream
// phaseAPasses times closed loop through the pipelined Pushers until
// every update is acked. Phase B replays it phaseBPasses more times
// open loop at the configured rate, each batchSize batch Push+Flushed
// and timed from its due time to its ack, while the coordinator
// queries on a schedule, the workers checkpoint, and /metrics is
// scraped. Phase C reads back to back with ingest stopped.
func clusterRound(b *bench, in *inputs, rec *recorder, op int64, tr *tracer) (err error) {
	root := tr.begin("bench.round", 0, op)
	defer tr.end(root)
	state, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(state)
	base := liveHeap()
	t0 := time.Now()
	c, openErr := openCluster(in.spec, tr, root, op)
	setup := time.Since(t0)
	defer func() {
		if cerr := c.close(); cerr != nil && err == nil {
			rec.op("close cluster", cerr)
			err = errRecorded
		}
	}()
	if !rec.op("open cluster", openErr) {
		return errRecorded
	}
	rec.add("setup_s", setup.Seconds())

	// Phase A: closed loop.
	alloc0 := totalAlloc()
	tA := time.Now()
	err = c.each(func(i int) error {
		p := c.pushers[i]
		for k := i; k < phaseAPasses*len(in.batches); k += len(c.pushers) {
			if !rec.op("push", push(p, in.batches[k%len(in.batches)], rec, tr, root, op)) {
				return errRecorded
			}
		}
		id := tr.begin("daemon.Pusher.Flush", root, op)
		ferr := p.Flush()
		tr.end(id)
		if !rec.op("flush", ferr) {
			return errRecorded
		}
		return nil
	})
	if err != nil {
		return err
	}
	phaseA := time.Since(tA)
	pushed := float64(phaseAPasses * len(in.updates))
	rec.add("alloc_bytes_per_update", float64(totalAlloc()-alloc0)/pushed)
	rec.add("ingest_mups", pushed/phaseA.Seconds()/1e6)

	// Phase B: open loop with reads, checkpoints and scrapes alongside.
	for _, w := range c.workers {
		dir := filepath.Join(state, w.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		c.ckpts = append(c.ckpts, daemon.StartCheckpointer(w.srv, daemon.CheckpointPath(dir), checkpointEvery, nil))
	}
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	// The checkpointers tick at whole periods from here; queries and
	// scrapes are staggered between them so that their state-lock holds
	// fall at the same places in every round instead of piling up.
	go func() {
		defer bg.Done()
		every(stop, queryOffset, queryEvery, func(int) {
			v, err := c.query(rec, tr, root, op)
			rec.estimate("cluster query", v, err)
		})
	}()
	go func() {
		defer bg.Done()
		nodes := append([]*node{c.coord}, c.workers...)
		every(stop, scrapeOffset, scrapeEvery, func(i int) {
			start := time.Now()
			id := tr.begin("daemon.GET /metrics", root, op)
			_, err := c.scrape(nodes[i%len(nodes)])
			tr.end(id)
			rec.add("scrape_ms", ms(time.Since(start)))
			rec.op("scrape", err)
		})
	}()
	interval := time.Duration(float64(batchSize) / b.cfg.PhaseBRateUp * float64(time.Second))
	sched := openLoop{start: time.Now().Add(time.Millisecond), interval: interval}
	total := phaseBPasses * len(in.batches)
	err = c.each(func(i int) error {
		p := c.pushers[i]
		lat, late, perr := sched.run(i, len(c.pushers), total, func(k int) error {
			if err := push(p, in.batches[k%len(in.batches)], rec, tr, root, op); err != nil {
				return err
			}
			id := tr.begin("daemon.Pusher.Flush", root, op)
			defer tr.end(id)
			return p.Flush()
		})
		rec.add("ack_ms", msAll(lat)...)
		rec.add("late_ms", msAll(late)...)
		for range lat {
			rec.op("push+flush", nil)
		}
		if perr != nil {
			rec.op("push+flush", perr)
			return errRecorded
		}
		return nil
	})
	close(stop)
	bg.Wait()
	if err != nil {
		return err
	}

	// Phase C: closed-loop reads with ingest stopped; the last answer is
	// checked against the exact g-SUM.
	var v float64
	var qerr error
	for i := 0; i < phaseCReads && qerr == nil; i++ {
		v, qerr = c.query(rec, tr, root, op)
	}
	rec.final("cluster estimate", v, in.exactTimes(phaseAPasses+phaseBPasses), qerr)
	rec.add("final_estimate", v)
	if err := c.collect(in, rec); err != nil {
		rec.op("collect counters", err)
		return errRecorded
	}
	rec.add("heap_live_bytes", liveHeap()-base)
	runtime.KeepAlive(c)
	return nil
}

// push enqueues one batch, recording how long Push blocked on the
// Pusher's bounded buffer (backpressure).
func push(p *daemon.Pusher, batch []stream.Update, rec *recorder, tr *tracer, root, op int64) error {
	t := time.Now()
	id := tr.begin("daemon.Pusher.Push", root, op)
	err := p.Push(batch)
	tr.end(id)
	rec.add("push_block_ms", ms(time.Since(t)))
	return err
}

// every calls fn at offset, offset+period, ... until stop is closed.
// A call that overruns its period delays the next one rather than
// queueing a burst (the ticker drops missed ticks).
func every(stop <-chan struct{}, offset, period time.Duration, fn func(i int)) {
	select {
	case <-stop:
		return
	case <-time.After(offset):
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for i := 0; ; i++ {
		fn(i)
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// collect reads the round's counters: the Pushers' own stats and each
// node's /metrics, parsed with the daemon's metrics parser.
func (c *cluster) collect(in *inputs, rec *recorder) error {
	for _, p := range c.pushers {
		st := p.Stats()
		rec.count("pusher_enqueued", float64(st.Enqueued))
		rec.count("pusher_acked", float64(st.Acked))
		rec.count("pusher_frames", float64(st.Frames))
		rec.count("pusher_flush_age", float64(st.FlushAge))
	}
	var space float64
	for _, n := range append([]*node{c.coord}, c.workers...) {
		sc, err := c.scrape(n)
		if err != nil {
			return err
		}
		space += sc.Sum("gsumd_space_bytes")
		rec.count("rejected_frames", sc.Sum("gsumd_stream_rejected_frames_total"))
		rec.count("checkpoint_s_sum", sc.Sum("gsumd_checkpoint_seconds_sum"))
		rec.count("checkpoint_count", sc.Sum("gsumd_checkpoint_seconds_count"))
		rec.count("rebuild_s_sum", sc.Sum("gsumd_rebuild_seconds_sum"))
		rec.count("rebuild_count", sc.Sum("gsumd_rebuild_seconds_count"))
	}
	if math.IsNaN(space) || space <= 0 {
		return fmt.Errorf("fleet reports %v space bytes", space)
	}
	rec.add("space_bytes", space)
	return nil
}
