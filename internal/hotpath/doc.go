// Package hotpath is the lock-free sharded ingest subsystem: per-core
// estimator shards fed through bounded MPSC ring buffers, behind a
// single estimator facade whose merged result is bit-identical to
// serial ingestion.
//
// The paper's sketches are linear in the frequency vector, so a stream
// can be partitioned by ITEM (every update to item x lands in shard
// hash(x) mod P) instead of by position: each shard sees a disjoint
// sub-stream, identically-seeded shard sketches accumulate disjoint
// counter contributions, and folding the shards is exactly the serial
// counter state. Shard-by-hash is what lets the concurrent path keep
// the repo's serial==parallel exactness contract while chasing line
// rate — arrival-order nondeterminism inside a shard cannot change a
// linear counter, and every update of one item is applied by exactly
// one goroutine.
//
// Two pieces:
//
//   - Ring: a bounded multi-producer single-consumer ring buffer in the
//     style of Vyukov's bounded MPMC queue — per-slot sequence numbers
//     carry the acquire/release handoff, slots are cache-line padded,
//     producers claim with one atomic add (batched claim: one add for k
//     slots) and publish with one release store, and a full ring means
//     BACKPRESSURE (spin with runtime.Gosched, counted as a stall),
//     never a dropped batch.
//
//   - ShardedEstimator: owns P identically-configured shard estimators
//     (P = GOMAXPROCS unless configured). Process fans the stream out
//     through one ring per shard — N producers route (item, delta)
//     batches by hash, one consumer goroutine per shard drains its ring
//     into the shard sketch — and joins before returning, so no
//     goroutine outlives the call. Update/UpdateBatch route
//     synchronously (the daemon applies under its state lock, where
//     concurrency would buy nothing), and Estimate/MarshalBinary read
//     the shards as their merge through Config.Read, leaving the shards
//     untouched. backend supplies core.EstimateMerged and
//     core.MarshalMerged, which hold no whole-estimator merge target:
//     each subsampling level is merged on its own into a level-sized
//     scratch, with the levels spread over up to GOMAXPROCS goroutines
//     (recursive.FoldEstimate, recursive.FoldMarshal), and the result
//     is bit-identical to merging the shards into a fresh estimator.
//
// Layer: between engine (chunking, worker resolution) and backend (the
// registry opens the shards and registers the "sharded" kind). This
// package never learns concrete sketch types — shards are anything
// satisfying the Shard contract — so it has no seed discipline of its
// own; the factory that opens the shards must hand out
// identically-configured (same Options, same Seed) estimators, which
// backend.Open does by construction.
package hotpath
