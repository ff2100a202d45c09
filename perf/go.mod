module wanshuffle/perf

go 1.22

require wanshuffle v0.0.0

replace wanshuffle => ../
