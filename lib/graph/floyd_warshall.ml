module Matrix = Etx_util.Matrix

type result = { distances : Matrix.t; successors : Matrix.Int.t }

let create_result ~dim =
  { distances = Matrix.create ~dim ~init:0.; successors = Matrix.Int.create ~dim ~init:(-1) }

(* Direct transcription of the paper's Fig 5: D(0) = W with S(0)_ij = j
   wherever an edge exists, then relax through every intermediate node n,
   keeping the incumbent successor on ties.  The controller recomputes
   this every TDMA frame, so the triple loop runs on the raw row-major
   arrays: bounds checks and index arithmetic are hoisted out of the
   O(n^3) core.

   Pass n only reads row n through the columns where it is finite: an
   infinite d(n, j) makes the candidate d(i, n) + inf, which never wins
   the strict [<].  Row n itself is fixed during pass n (a relaxation
   of d(n, j) through n would need d(n, n) + d(n, j) < d(n, j), and
   d(n, n) >= 0), so the span of finite columns found before the i-loop
   stays exact for the whole pass, and skipping the columns outside it
   leaves every distance and successor bit-identical. *)
let run_into result w =
  let dim = Matrix.dim w in
  if Matrix.dim result.distances <> dim || Matrix.Int.dim result.successors <> dim then
    invalid_arg "Floyd_warshall.run_into: scratch dimension differs from the input";
  let src = Matrix.data w in
  let d = Matrix.data result.distances in
  let s = Matrix.Int.data result.successors in
  for i = 0 to dim - 1 do
    let row = i * dim in
    for j = 0 to dim - 1 do
      let v = Array.unsafe_get src (row + j) in
      if v < 0. then
        invalid_arg
          (Printf.sprintf "Floyd_warshall.run: negative weight at (%d, %d)" i j);
      Array.unsafe_set d (row + j) v;
      Array.unsafe_set s (row + j) (if i <> j && v < infinity then j else -1)
    done
  done;
  for n = 0 to dim - 1 do
    let n_row = n * dim in
    let first = ref 0 in
    while !first < dim && not (Array.unsafe_get d (n_row + !first) < infinity) do
      incr first
    done;
    let last = ref (dim - 1) in
    while !last > !first && not (Array.unsafe_get d (n_row + !last) < infinity) do
      decr last
    done;
    let first = !first and last = !last in
    for i = 0 to dim - 1 do
      let i_row = i * dim in
      let d_in = Array.unsafe_get d (i_row + n) in
      if d_in < infinity then begin
        let s_in = Array.unsafe_get s (i_row + n) in
        for j = first to last do
          let via = d_in +. Array.unsafe_get d (n_row + j) in
          if via < Array.unsafe_get d (i_row + j) then begin
            Array.unsafe_set d (i_row + j) via;
            Array.unsafe_set s (i_row + j) s_in
          end
        done
      end
    done
  done;
  result

let run w = run_into (create_result ~dim:(Matrix.dim w)) w

let distance result ~src ~dst = Matrix.get result.distances src dst

let successor result ~src ~dst =
  match Matrix.Int.get result.successors src dst with
  | -1 -> None
  | hop -> Some hop
