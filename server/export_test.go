package server

// ReplCatchupFrameBytes exposes the catch-up frame byte cap to the
// external test package.
const ReplCatchupFrameBytes = replCatchupFrameBytes
