package federation

import "sort"

// TrackedCheckpointRanks lists, over every key this node owns, the shard
// ranks for which checkpointFor currently returns a checkpoint.
func (n *Node) TrackedCheckpointRanks() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []int
	for _, km := range n.ckpts {
		for r, cp := range km {
			if cp != nil {
				out = append(out, r)
			}
		}
	}
	sort.Ints(out)
	return out
}
