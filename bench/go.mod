module flowdiff/bench

go 1.22

require flowdiff v0.0.0

replace flowdiff => ../
