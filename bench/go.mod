module divsql/bench

go 1.23

require divsql v0.0.0

replace divsql => ../
