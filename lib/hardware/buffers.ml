let array_input_entries = 8
let push_pj = 0.1
let pop_pj = 0.1
