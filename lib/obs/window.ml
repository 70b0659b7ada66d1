type t = {
  capacity : int;
  times : float array;
  values : float array;
  mutable head : int;  (* index of the oldest sample *)
  mutable len : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Window.create: capacity < 1";
  { capacity;
    times = Array.make capacity 0.0;
    values = Array.make capacity 0.0;
    head = 0;
    len = 0;
    dropped = 0
  }

let push t ~time v =
  if t.len = t.capacity then begin
    (* overwrite the oldest slot and advance the head *)
    t.times.(t.head) <- time;
    t.values.(t.head) <- v;
    t.head <- (t.head + 1) mod t.capacity;
    t.dropped <- t.dropped + 1
  end
  else begin
    let i = (t.head + t.len) mod t.capacity in
    t.times.(i) <- time;
    t.values.(i) <- v;
    t.len <- t.len + 1
  end

let length t = t.len
let dropped t = t.dropped

let nth t i =
  let j = (t.head + i) mod t.capacity in
  (t.times.(j), t.values.(j))

let last t = if t.len = 0 then None else Some (nth t (t.len - 1))

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    let time, v = nth t i in
    acc := f !acc ~time v
  done;
  !acc

let rate_horizon_s = 60.0

let rate t =
  if t.len = 0 then 0.0
  else
    let newest = fst (nth t (t.len - 1)) in
    let floor = newest -. rate_horizon_s in
    let s =
      fold t ~init:0.0 ~f:(fun acc ~time v ->
          if time > floor then acc +. v else acc)
    in
    s /. rate_horizon_s

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc ~time v -> (time, v) :: acc))
