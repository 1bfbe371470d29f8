package algo

// HashU64 is the priority hash of the greedy kernels, for the external
// tests that build their decision order.
var HashU64 = hashU64
