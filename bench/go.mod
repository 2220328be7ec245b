module automon/bench

go 1.22

require automon v0.0.0

replace automon => ../
