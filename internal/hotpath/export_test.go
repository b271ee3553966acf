package hotpath

// ShardsOf exposes a sharded estimator's shards to the external tests,
// which fold them into a reference merge target.
func ShardsOf(se *ShardedEstimator) []Shard { return se.shards }
