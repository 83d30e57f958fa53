package overlay

// StagedAt reports how many records nd's probe spool holds; 0 without one.
func StagedAt(nd *Node) int {
	if nd.spool == nil {
		return 0
	}
	return nd.spool.Len()
}
