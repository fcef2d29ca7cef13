package core

// RaceEnabled exposes raceEnabled to the external core_test package.
const RaceEnabled = raceEnabled
