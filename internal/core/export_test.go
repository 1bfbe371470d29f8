package core

// DenseEarlyPrefix exposes denseEarlyPrefix to the external tests.
const DenseEarlyPrefix = denseEarlyPrefix
