module Matrix = Etx_util.Matrix

type result = { distances : Matrix.t; successors : Matrix.Int.t }

(* Direct transcription of the paper's Fig 5: D(0) = W with S(0)_ij = j
   wherever an edge exists, then relax through every intermediate node n,
   keeping the incumbent successor on ties.  The triple loop runs on the
   raw row-major arrays, every index below [dim * dim]; a row i with no
   path to n yet (d(i, n) = inf) cannot improve through it. *)
let run w =
  let dim = Matrix.dim w in
  let distances = Matrix.create ~dim ~init:0. in
  let successors = Matrix.Int.create ~dim ~init:(-1) in
  let src = Matrix.data w in
  let d = Matrix.data distances and s = Matrix.Int.data successors in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let v = src.((i * dim) + j) in
      if v < 0. then
        invalid_arg
          (Printf.sprintf "Floyd_warshall.run: negative weight at (%d, %d)" i j);
      d.((i * dim) + j) <- v;
      if i <> j && v < infinity then s.((i * dim) + j) <- j
    done
  done;
  for n = 0 to dim - 1 do
    let n_row = n * dim in
    for i = 0 to dim - 1 do
      let i_row = i * dim in
      let d_in = d.(i_row + n) in
      if d_in < infinity then begin
        let s_in = s.(i_row + n) in
        for j = 0 to dim - 1 do
          let via = d_in +. Array.unsafe_get d (n_row + j) in
          if via < Array.unsafe_get d (i_row + j) then begin
            Array.unsafe_set d (i_row + j) via;
            Array.unsafe_set s (i_row + j) s_in
          end
        done
      end
    done
  done;
  { distances; successors }

let distance result ~src ~dst = Matrix.get result.distances src dst

let successor result ~src ~dst =
  match Matrix.Int.get result.successors src dst with
  | -1 -> None
  | hop -> Some hop
