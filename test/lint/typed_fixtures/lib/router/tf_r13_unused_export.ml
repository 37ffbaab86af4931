let used_inside x = x + 1
let used_outside x = 2 * used_inside x
let unused x = x - 1
