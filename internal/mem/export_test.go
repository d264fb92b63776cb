package mem

// ChunksMade counts the chunks m has allocated on the host.
func ChunksMade(m *Memory) int {
	n := 0
	for _, c := range m.chunks {
		if c != nil {
			n++
		}
	}
	return n
}
