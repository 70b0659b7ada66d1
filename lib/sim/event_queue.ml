type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array; (* heap.(0) unused when size = 0 *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.heap in
  if t.size >= cap then begin
    let ncap = max 16 (2 * cap) in
    let nheap = Array.make ncap entry in
    Array.blit t.heap 0 nheap 0 t.size;
    t.heap <- nheap
  end

let push t ~time payload =
  let e = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t e;
  (* Sift up. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- e;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before e t.heap.(parent) then begin
      t.heap.(!i) <- t.heap.(parent);
      t.heap.(parent) <- e;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.heap.(t.size) in
      t.heap.(0) <- last;
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
        if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.heap.(!i) in
          t.heap.(!i) <- t.heap.(!smallest);
          t.heap.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.time, top.payload)
  end

let peek_time t = if t.size = 0 then None else Some t.heap.(0).time
