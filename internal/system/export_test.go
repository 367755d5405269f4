package system

// MatchGolden is matchGolden for the external test package, whose tests run
// systems built by internal/experiments (which imports this package).
var MatchGolden = matchGolden

// MemoryDescription is memoryDescription for TestEventCensus, whose ledger
// shapes are built by internal/experiments.
var MemoryDescription = memoryDescription
