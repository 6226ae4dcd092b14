// Package cte implements the Collective Tree Exploration algorithm of
// Fraigniaud, Gasieniec, Kowalski and Pelc (2006) — reference [10] of the
// paper — as the baseline BFDN is compared against.
//
// CTE keeps the robots in groups: all robots located at a node v whose
// subtree still contains unexplored edges split as evenly as possible among
// the "alive" targets at v (explored children whose subtree has a dangling
// edge, and the dangling edges at v itself); robots at a node whose subtree
// is fully explored move up towards the root. Groups may traverse a dangling
// edge together. CTE explores any tree in O(n/log k + D) rounds, which is
// the best known competitive ratio, O(k/log k); its additive overhead over
// 2n/k can however reach Ω(Dk/log k) (Higashikawa et al. [11]), which is
// what experiment E10 exhibits against BFDN.
//
// CTE is the team walk of internal/teams under its even split rule.
package cte

import "bfdn/internal/teams"

// New returns a CTE instance for k robots.
func New(k int) *teams.Team { return teams.New(k, "cte", teams.Even) }
