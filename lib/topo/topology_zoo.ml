type t = {
  name : string;
  pops : string array;
  links : (int * int) list;
}

let hurricane_electric =
  { name = "Hurricane Electric";
    pops =
      [| "Seattle"; "Fremont"; "San Jose"; "Los Angeles"; "Phoenix";
         "Las Vegas"; "Denver"; "Dallas"; "Houston"; "Kansas City"; "Chicago";
         "Minneapolis"; "Toronto"; "New York"; "Ashburn"; "Atlanta"; "Miami";
         "London"; "Paris"; "Amsterdam"; "Frankfurt"; "Zurich"; "Stockholm";
         "Hong Kong" |];
    links =
      [ (0, 1); (0, 10); (0, 23); (1, 2); (1, 3); (2, 3); (2, 23); (3, 4);
        (4, 5); (4, 7); (5, 6); (6, 9); (7, 8); (7, 15); (8, 16); (9, 10);
        (10, 11); (10, 12); (10, 13); (12, 13); (13, 14); (13, 17); (14, 15);
        (15, 16); (17, 18); (17, 19); (18, 21); (19, 20); (19, 22); (20, 21) ]
  }

let abilene =
  { name = "Abilene";
    pops =
      [| "Seattle"; "Sunnyvale"; "Los Angeles"; "Denver"; "Kansas City";
         "Houston"; "Chicago"; "Indianapolis"; "Atlanta"; "Washington";
         "New York" |];
    links =
      [ (0, 1); (0, 3); (1, 2); (1, 3); (2, 5); (3, 4); (4, 5); (4, 7);
        (5, 8); (6, 7); (6, 10); (7, 8); (8, 9); (9, 10) ]
  }

let n_pops t = Array.length t.pops
let n_links t = List.length t.links
