package core

// RandomChain exposes the random fusion-problem generator to the external
// test package, whose tests also build the shipped combinations.
var RandomChain = randomChain
