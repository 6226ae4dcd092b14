package urns

// LeastLoadedPlayer is the paper's strategy: move the ball to the fresh urn
// with the fewest balls (excluding the urn the adversary just chose). When no
// fresh urn remains it returns the ball to the source urn — the game is then
// one check away from stopping, so the choice is immaterial.
type LeastLoadedPlayer struct{}

var _ Player = LeastLoadedPlayer{}

// Choose implements Player.
func (LeastLoadedPlayer) Choose(b *Board, a int) int {
	if u, ok := b.LeastLoadedFresh(a); ok {
		return u
	}
	return a
}
