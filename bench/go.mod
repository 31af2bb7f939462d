// The benchmark is a module of its own so that the root module's build
// and tests never see it. Its path sits under "redundancy/", which is
// what lets it import the root module's internal packages.
module redundancy/bench

go 1.24

require redundancy v0.0.0

replace redundancy => ../
