package shard

// Depth returns the number of tiers from root shard to leaves (1 = a single
// shard tier).
func (t *Tree) Depth() int { return t.depth }

// Leaves returns the number of leaf shards.
func (t *Tree) Leaves() int { return len(t.leaves) }
