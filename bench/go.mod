module github.com/brb-repro/brb/bench

go 1.22

require github.com/brb-repro/brb v0.0.0

replace github.com/brb-repro/brb => ../
