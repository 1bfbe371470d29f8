package algo

// HashU64 is the priority hash of the greedy kernels, for the external
// tests that build their decision order.
var HashU64 = hashU64

// BellmanFordBlocks is BellmanFordCtx with drain blocks of 1<<shift
// vertices (shift >= 6): every test graph is smaller than one block of
// the real size.
var BellmanFordBlocks = bellmanFord

// Distances is the point-query search behind the reach and landmarks
// rows.
var Distances = distancesCtx

// DistancesHeld is Distances that also returns the most level arrays the
// search held at once.
var DistancesHeld = distances
