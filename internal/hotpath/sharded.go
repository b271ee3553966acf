package hotpath

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/stream"
)

// Shard is what the sharded facade demands of one shard estimator. It
// is structurally the backend Estimator contract (this package cannot
// import backend — backend registers the sharded kind and imports this
// package), and backend.Open values satisfy it directly.
type Shard interface {
	Update(item uint64, delta int64)
	UpdateBatch(batch []stream.Update)
	Estimate() float64
	SpaceBytes() int
	Fingerprint() uint64
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// Config parameterizes New.
type Config struct {
	// Shards is the shard (and Process consumer) count; < 1 means
	// GOMAXPROCS.
	Shards int
	// RingDepth is the slot count of each shard's ring (0 = 64 slots;
	// rounded up to a power of two). Deeper rings absorb burstier
	// routing imbalance before producers stall.
	RingDepth int
	// BatchSize is how many routed updates a producer buffers per shard
	// before publishing the batch (0 = engine.DefaultBatchSize / 4;
	// smaller batches keep shards busier, larger ones amortize the ring
	// handoff).
	BatchSize int
	// NewShard opens one shard estimator. Every call MUST return an
	// identically-configured instance (same Spec, hence same seeds) —
	// that is the seed discipline the bit-identity contract rests on,
	// and backend.Open from one normalized Spec provides it.
	NewShard func() (Shard, error)
	// Read answers Estimate and MarshalBinary from the shards. Required.
	Read Reader
}

// Reader reads the shards as the one estimator their merge would be,
// without mutating them. Both methods receive every shard, in shard
// order, and must answer exactly as merging the shards in that order
// into a fresh estimator from NewShard and reading it would. backend's
// implementation folds one subsampling level at a time
// (core.EstimateMerged, core.MarshalMerged) and never builds that
// estimator.
type Reader interface {
	Estimate(shards []Shard) (float64, error)
	Marshal(shards []Shard) ([]byte, error)
}

// Stats is a snapshot of the ring-layer counters, summed over the shard
// rings. Cumulative fields survive across Process calls; Occupancy is
// live (0 while no Process is running).
type Stats struct {
	Shards    int
	RingDepth int
	// Occupancy is the number of published-but-unconsumed batches
	// currently sitting in rings.
	Occupancy uint64
	// Batches and Updates count everything published to rings.
	Batches uint64
	Updates uint64
	// ProducerStalls and ConsumerStalls count spin-yield iterations
	// spent waiting on a full (producer side) or empty (consumer side)
	// ring — the backpressure signal.
	ProducerStalls uint64
	ConsumerStalls uint64
}

// ShardedEstimator owns P identically-configured shard estimators and
// routes every update to shard hash(item) mod P. Process ingests
// concurrently through per-shard rings; Update/UpdateBatch route
// synchronously. Estimate and MarshalBinary read the shards as their
// merge through Config.Read, level by level and without a merge target,
// so they are repeatable and leave the shards untouched, and the
// marshaled snapshot is the SAME wire format as a single shard's — a
// sharded worker interoperates with serial peers on the wire.
//
// Like every estimator in the repository, a ShardedEstimator is not
// goroutine-safe from the caller's side: Process parallelizes
// internally, but concurrent method calls need external serialization
// (the daemon's state lock provides it). Stats alone is safe to call
// concurrently with Process.
type ShardedEstimator struct {
	shards    []Shard
	read      Reader
	ringDepth int
	batchSize int

	// route is reusable synchronous-path scratch: one buffer per shard.
	route [][]stream.Update

	// live points at the rings of an in-flight Process call (nil
	// otherwise); cumulative counters absorb ring totals as each call
	// finishes. Both are read by Stats, possibly from a metrics scrape
	// while a bench Process runs, hence the atomics.
	live      atomic.Pointer[[]*Ring]
	batches   atomic.Uint64
	updates   atomic.Uint64
	prodStall atomic.Uint64
	consStall atomic.Uint64

	// pool recycles batch buffers between producers and consumers.
	pool sync.Pool
}

// New builds a ShardedEstimator by calling cfg.NewShard once per shard.
func New(cfg Config) (*ShardedEstimator, error) {
	if cfg.NewShard == nil {
		return nil, fmt.Errorf("hotpath: Config.NewShard is required")
	}
	if cfg.Read == nil {
		return nil, fmt.Errorf("hotpath: Config.Read is required")
	}
	p := engine.Workers(cfg.Shards)
	depth := cfg.RingDepth
	if depth <= 0 {
		depth = 64
	}
	bs := cfg.BatchSize
	if bs <= 0 {
		bs = engine.DefaultBatchSize / 4
	}
	se := &ShardedEstimator{
		shards:    make([]Shard, p),
		read:      cfg.Read,
		ringDepth: depth,
		batchSize: bs,
		route:     make([][]stream.Update, p),
	}
	se.pool.New = func() any { return make([]stream.Update, 0, bs) }
	for i := range se.shards {
		s, err := cfg.NewShard()
		if err != nil {
			return nil, fmt.Errorf("hotpath: shard %d: %w", i, err)
		}
		se.shards[i] = s
	}
	return se, nil
}

// Shards returns the shard count.
func (se *ShardedEstimator) Shards() int { return len(se.shards) }

// shardOf routes an item: a strong multiplicative mix (the SplitMix64
// finalizer) over the item, reduced mod P. Routing must be a pure
// function of the item — that is what makes the partition a disjoint
// split of the frequency vector — and mixing first keeps structured
// domains (sequential IDs, strided keys) from aliasing onto one shard.
func (se *ShardedEstimator) shardOf(item uint64) int {
	x := item
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(se.shards)))
}

// Update routes one update to its shard synchronously.
func (se *ShardedEstimator) Update(item uint64, delta int64) {
	se.shards[se.shardOf(item)].Update(item, delta)
}

// UpdateBatch partitions the batch by item hash and applies each
// sub-batch to its shard, on the calling goroutine. Within a shard the
// original update order is preserved, so the counter state equals the
// equivalent sequence of Update calls exactly.
func (se *ShardedEstimator) UpdateBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	if len(se.shards) == 1 {
		se.shards[0].UpdateBatch(batch)
		return
	}
	for i := range se.route {
		se.route[i] = se.route[i][:0]
	}
	for _, u := range batch {
		s := se.shardOf(u.Item)
		se.route[s] = append(se.route[s], u)
	}
	for i, sub := range se.route {
		if len(sub) > 0 {
			se.shards[i].UpdateBatch(sub)
		}
	}
}

// Process ingests the whole update slice through the concurrent path:
// one producer per shard routes its contiguous chunk into per-shard
// rings, one consumer per shard drains its ring into the shard sketch,
// and Process returns only after every goroutine has joined — no
// goroutine outlives the call. Because routing is per-item, the shard
// states (and therefore the merged estimate) do not depend on producer
// count, chunk boundaries, or scheduling.
func (se *ShardedEstimator) Process(updates []stream.Update) error {
	p := len(se.shards)
	if p == 1 || len(updates) < 2*se.batchSize {
		engine.Ingest(se, updates, 0)
		return nil
	}

	rings := make([]*Ring, p)
	for i := range rings {
		rings[i] = NewRing(se.ringDepth)
	}
	se.live.Store(&rings)

	var consumers sync.WaitGroup
	for i := 0; i < p; i++ {
		consumers.Add(1)
		go func(i int) {
			defer consumers.Done()
			r, sh := rings[i], se.shards[i]
			for {
				b, ok := r.Dequeue()
				if !ok {
					return
				}
				sh.UpdateBatch(b)
				se.pool.Put(b[:0])
			}
		}(i)
	}

	engine.ParallelChunks(updates, p, func(_ int, chunk []stream.Update) {
		local := make([][]stream.Update, p)
		for i := range local {
			local[i] = se.pool.Get().([]stream.Update)
		}
		for _, u := range chunk {
			s := se.shardOf(u.Item)
			local[s] = append(local[s], u)
			if len(local[s]) == se.batchSize {
				rings[s].Enqueue(local[s])
				local[s] = se.pool.Get().([]stream.Update)
			}
		}
		for s, b := range local {
			if len(b) > 0 {
				rings[s].Enqueue(b)
			} else {
				se.pool.Put(b[:0])
			}
		}
	})

	for _, r := range rings {
		r.Close()
	}
	consumers.Wait()
	se.live.Store(nil)
	for _, r := range rings {
		se.batches.Add(r.batches.Load())
		se.updates.Add(r.updates.Load())
		se.prodStall.Add(r.producerStalls.Load())
		se.consStall.Add(r.consumerStalls.Load())
	}
	return nil
}

// Stats sums the ring counters: cumulative totals from finished Process
// calls plus the live rings of one in flight.
func (se *ShardedEstimator) Stats() Stats {
	st := Stats{
		Shards:         len(se.shards),
		RingDepth:      se.ringDepth,
		Batches:        se.batches.Load(),
		Updates:        se.updates.Load(),
		ProducerStalls: se.prodStall.Load(),
		ConsumerStalls: se.consStall.Load(),
	}
	if rings := se.live.Load(); rings != nil {
		for _, r := range *rings {
			st.Occupancy += r.Occupancy()
			st.Batches += r.batches.Load()
			st.Updates += r.updates.Load()
			st.ProducerStalls += r.producerStalls.Load()
			st.ConsumerStalls += r.consumerStalls.Load()
		}
	}
	return st
}

// Estimate answers from the union state of the shards (Config.Read) —
// by linearity, the serial estimator's answer over the same updates.
// The shards are never mutated, so Estimate is repeatable and, between
// Process calls, reflects exactly the updates applied so far. Shards are
// identically configured by the NewShard contract, so the read cannot
// fail except for a broken factory; that is a programming error and
// panics rather than returning a silent garbage estimate.
func (se *ShardedEstimator) Estimate() float64 {
	v, err := se.read.Estimate(se.shards)
	if err != nil {
		panic("hotpath: Estimate: " + err.Error())
	}
	return v
}

// SpaceBytes reports the total sketch state across shards.
func (se *ShardedEstimator) SpaceBytes() int {
	total := 0
	for _, sh := range se.shards {
		total += sh.SpaceBytes()
	}
	return total
}

// Fingerprint is the shards' common seed fingerprint (they are
// identically configured), which is also the fingerprint of the merged
// snapshot MarshalBinary emits.
func (se *ShardedEstimator) Fingerprint() uint64 {
	return se.shards[0].Fingerprint()
}

// MarshalBinary snapshots the merged state in the shard kind's own wire
// format: a sharded worker's snapshot decodes anywhere a serial one
// does.
func (se *ShardedEstimator) MarshalBinary() ([]byte, error) {
	return se.read.Marshal(se.shards)
}

// UnmarshalBinary folds a snapshot INTO the estimator (merge
// semantics, like every wire decode in the repository) by applying it
// to shard 0 — linearity makes any shard as good as any other.
func (se *ShardedEstimator) UnmarshalBinary(data []byte) error {
	return se.shards[0].UnmarshalBinary(data)
}
