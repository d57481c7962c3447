package telemetry

// ScanExperiments exposes the Scanner's stream decoder to the external
// tests, which need the simulator to build their streams.
var ScanExperiments = scanExperiments
